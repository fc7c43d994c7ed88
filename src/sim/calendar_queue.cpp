#include "sim/calendar_queue.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace rlb::sim {

namespace {

/// The pop order: strictly increasing (time, id), matching a
/// std::greater<> heap over std::pair<double, int>.
bool event_less(double at, std::int32_t aid, double bt, std::int32_t bid) {
  if (at != bt) return at < bt;
  return aid < bid;
}

}  // namespace

CalendarQueue::CalendarQueue(double bucket_width, std::size_t buckets) {
  RLB_REQUIRE(bucket_width > 0.0, "bucket width must be positive");
  RLB_REQUIRE(buckets >= 1, "need at least one bucket");
  width_ = bucket_width;
  buckets_.resize(buckets);
}

double CalendarQueue::abs_bucket(double time) const {
  return std::floor(time / width_);
}

std::size_t CalendarQueue::slot_of(double abs_bucket) const {
  const std::size_t nb = buckets_.size();
  // Resizing doubles/halves, so nb is a power of two on every hot path;
  // mask instead of fmod when the absolute bucket also fits an integer.
  if ((nb & (nb - 1)) == 0 && abs_bucket < 9.0e18)
    return static_cast<std::size_t>(static_cast<std::uint64_t>(abs_bucket)) &
           (nb - 1);
  return static_cast<std::size_t>(
      std::fmod(abs_bucket, static_cast<double>(nb)));
}

void CalendarQueue::insert(const Event& e) {
  Bucket& bucket = buckets_[slot_of(abs_bucket(e.time))];
  if (bucket.count == kInlineCapacity) {
    // Bucket full: park the event on the shared min-heap. No cursor
    // interaction — top/pop always consult the heap head directly.
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(),
                   [](const Event& a, const Event& b) {
                     return event_less(b.time, b.id, a.time, a.id);
                   });
    return;
  }
  bucket.e[bucket.count++] = e;

  // An event behind the scan cursor would otherwise wait a whole year to
  // be seen; pull the cursor back to it.
  const double ab = abs_bucket(e.time);
  if (ab < cursor_bucket_) {
    cursor_bucket_ = ab;
    cursor_ = slot_of(ab);
  }
}

void CalendarQueue::push(double time, std::int32_t id) {
  RLB_REQUIRE(time >= 0.0 && std::isfinite(time),
              "event times must be finite and non-negative");
  if (size_ + 1 > 2 * buckets_.size()) rebuild(2 * buckets_.size());
  insert(Event{time, id});
  ++size_;
}

std::int32_t CalendarQueue::find_inline_min() {
  RLB_ASSERT(inline_size() > 0, "find_inline_min on an empty calendar");
  // Scan at most one full year (every slot once): a bucket's minimum
  // event is due exactly when its absolute bucket number matches the
  // cursor's — the same floor(time / width) the insert used, so no
  // edge-rounding drift between insertion and retrieval is possible.
  for (std::size_t scanned = 0; scanned < buckets_.size(); ++scanned) {
    const Bucket& bucket = buckets_[cursor_];
    if (bucket.count > 0) {
      std::int32_t best = 0;
      for (std::int32_t i = 1; i < bucket.count; ++i)
        if (event_less(bucket.e[i].time, bucket.e[i].id, bucket.e[best].time,
                       bucket.e[best].id))
          best = i;
      if (abs_bucket(bucket.e[best].time) == cursor_bucket_) return best;
    }
    cursor_ = cursor_ + 1 == buckets_.size() ? 0 : cursor_ + 1;
    cursor_bucket_ += 1.0;
  }
  // A whole year with nothing due: every remaining inline event is far
  // in the future. Jump straight to the calendar's minimum.
  reposition();
  const Bucket& bucket = buckets_[cursor_];
  std::int32_t best = 0;
  for (std::int32_t i = 1; i < bucket.count; ++i)
    if (event_less(bucket.e[i].time, bucket.e[i].id, bucket.e[best].time,
                   bucket.e[best].id))
      best = i;
  return best;
}

void CalendarQueue::reposition() {
  const Event* best = nullptr;
  std::size_t best_slot = 0;
  for (std::size_t slot = 0; slot < buckets_.size(); ++slot) {
    const Bucket& bucket = buckets_[slot];
    for (std::int32_t i = 0; i < bucket.count; ++i) {
      const Event& candidate = bucket.e[i];
      if (best == nullptr ||
          event_less(candidate.time, candidate.id, best->time, best->id)) {
        best = &candidate;
        best_slot = slot;
      }
    }
  }
  RLB_ASSERT(best != nullptr, "reposition on an empty calendar");
  cursor_ = best_slot;
  cursor_bucket_ = abs_bucket(best->time);
}

std::pair<double, std::int32_t> CalendarQueue::top() {
  RLB_REQUIRE(size_ > 0, "top on an empty calendar queue");
  if (inline_size() == 0) {
    const Event& e = overflow_.front();
    return {e.time, e.id};
  }
  const std::int32_t idx = find_inline_min();
  const Event& e = buckets_[cursor_].e[idx];
  if (!overflow_.empty()) {
    const Event& h = overflow_.front();
    if (event_less(h.time, h.id, e.time, e.id)) return {h.time, h.id};
  }
  return {e.time, e.id};
}

std::pair<double, std::int32_t> CalendarQueue::pop() {
  RLB_REQUIRE(size_ > 0, "pop on an empty calendar queue");
  Event event;
  bool from_overflow = inline_size() == 0;
  std::int32_t idx = -1;
  if (!from_overflow) {
    idx = find_inline_min();
    event = buckets_[cursor_].e[idx];
    if (!overflow_.empty() &&
        event_less(overflow_.front().time, overflow_.front().id, event.time,
                   event.id))
      from_overflow = true;
  }
  if (from_overflow) {
    event = overflow_.front();
    std::pop_heap(overflow_.begin(), overflow_.end(),
                  [](const Event& a, const Event& b) {
                    return event_less(b.time, b.id, a.time, a.id);
                  });
    overflow_.pop_back();
  } else {
    Bucket& bucket = buckets_[cursor_];
    bucket.e[idx] = bucket.e[bucket.count - 1];
    --bucket.count;
  }
  --size_;
  if (buckets_.size() > 16 && size_ < buckets_.size() / 4)
    rebuild(buckets_.size() / 2);
  return {event.time, event.id};
}

void CalendarQueue::rebuild(std::size_t buckets) {
  scratch_.clear();
  scratch_.reserve(size_);
  for (const Bucket& bucket : buckets_)
    scratch_.insert(scratch_.end(), bucket.e, bucket.e + bucket.count);
  scratch_.insert(scratch_.end(), overflow_.begin(), overflow_.end());
  overflow_.clear();

  // Adapt the width so the events in flight land ~1 per bucket-span:
  // O(1) expected events per bucket in the active window (and almost all
  // of them inside the three inline slots), the property that makes push
  // and pop O(1) amortized. Driven only by the queued events — never by
  // wall-clock — so rebuilds are deterministic.
  if (scratch_.size() >= 2) {
    double lo = scratch_.front().time;
    double hi = scratch_.front().time;
    for (const Event& e : scratch_) {
      lo = std::min(lo, e.time);
      hi = std::max(hi, e.time);
    }
    const double width = (hi - lo) / static_cast<double>(scratch_.size());
    if (width > 0.0 && std::isfinite(width)) width_ = width;
  }

  buckets_.assign(buckets, Bucket{});
  cursor_ = 0;
  cursor_bucket_ = 0.0;
  for (const Event& e : scratch_) insert(e);
  if (inline_size() > 0) reposition();
}

}  // namespace rlb::sim
