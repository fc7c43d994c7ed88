// Calendar (bucketed) event queue: O(1) amortized schedule/pop versus the
// O(log n) of a binary heap. Events are
// (time, id) pairs hashed into time buckets of adaptive width; pop scans
// the current "year" of buckets in time order, so with the width resized
// to keep a handful of events per bucket both operations touch O(1)
// buckets on average (Brown's calendar queue, CACM 1988).
//
// Memory layout: each bucket is a fixed 56-byte record — a count plus
// three inline event slots — so a bucket probe is ONE cache line, never a
// pointer chase into a per-bucket heap allocation. The width is adapted
// to ~1 event per bucket, so overflow past the three slots is rare; the
// overflowing events go to a single shared min-heap, and the queue's
// minimum is the smaller of the calendar's due event and the heap top.
// That keeps the common path allocation-free and cache-resident while
// staying correct under arbitrary clustering (ties, bursts, all-equal
// times simply ride the heap at O(log n)).
//
// Determinism contract: pop order is the strict total order by
// (time, id) — exactly the ordering std::priority_queue<std::pair<double,
// int>, ..., std::greater<>> gives — and resizing is driven purely by
// element counts, never by timing. The cluster engine relies on this to
// stay bit-identical with the heap-based reference engine the tests keep
// (tests/legacy_cluster_oracle.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/prefetch.h"

namespace rlb::sim {

class CalendarQueue {
 public:
  /// `bucket_width` and `buckets` seed the calendar before the first
  /// resize; both adapt automatically as events accumulate.
  explicit CalendarQueue(double bucket_width = 1.0, std::size_t buckets = 16);

  void push(double time, std::int32_t id);

  /// Smallest event by (time, id). Requires !empty().
  [[nodiscard]] std::pair<double, std::int32_t> top();

  /// Removes and returns the smallest event by (time, id).
  std::pair<double, std::int32_t> pop();

  /// top().first — the next event time. Requires !empty().
  [[nodiscard]] double min_time() { return top().first; }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Number of buckets currently allocated (exposed for tests and the
  /// microbenchmarks; resizing doubles/halves it with the event count).
  [[nodiscard]] std::size_t buckets() const { return buckets_.size(); }

  /// Events currently parked on the shared overflow heap (exposed for
  /// tests; should stay near zero under well-spread workloads).
  [[nodiscard]] std::size_t overflow_size() const { return overflow_.size(); }

  /// Hint that a push(time, ...) is imminent: start loading the bucket
  /// that push would touch. Pure prefetch — never changes state, and a
  /// rebuild between the hint and the push merely wastes the hint.
  void prefetch_slot(double time) const {
    util::prefetch(&buckets_[slot_of(abs_bucket(time))]);
  }

 private:
  struct Event {
    double time;
    std::int32_t id;
  };

  /// Inline slots per bucket. Three 16-byte events plus the count keep
  /// sizeof(Bucket) inside one 64-byte cache line.
  static constexpr std::int32_t kInlineCapacity = 3;

  struct Bucket {
    std::int32_t count = 0;
    Event e[kInlineCapacity];
  };
  static_assert(sizeof(Bucket) <= 64, "bucket must fit one cache line");

  [[nodiscard]] std::size_t inline_size() const {
    return size_ - overflow_.size();
  }

  /// Absolute (un-wrapped) bucket number of a time; a double holding an
  /// integer so far-future events cannot overflow an integer type.
  [[nodiscard]] double abs_bucket(double time) const;
  [[nodiscard]] std::size_t slot_of(double abs_bucket) const;
  /// Place one event (inline slot or overflow heap) without touching
  /// size_ or the resize triggers; shared by push and rebuild.
  void insert(const Event& e);
  void rebuild(std::size_t buckets);
  /// Point the scan cursor at the bucket holding the calendar's (inline)
  /// minimum (direct search over all buckets; used after rebuilds and
  /// when a whole year of buckets turns up empty). Requires
  /// inline_size() > 0.
  void reposition();
  /// Locate the smallest INLINE event by (time, id); leaves the cursor
  /// on its bucket and returns the slot index within it. Requires
  /// inline_size() > 0.
  std::int32_t find_inline_min();

  std::vector<Bucket> buckets_;
  std::vector<Event> overflow_;  ///< min-heap by (time, id)
  std::vector<Event> scratch_;   ///< rebuild staging, reused across calls
  double width_;
  std::size_t cursor_ = 0;      ///< ring slot the scan is standing on
  double cursor_bucket_ = 0.0;  ///< absolute bucket number of cursor_
  std::size_t size_ = 0;
};

}  // namespace rlb::sim
