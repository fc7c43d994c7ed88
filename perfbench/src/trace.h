// In-memory span recorder for rlb_perfbench's traced runs.
//
// A span is (name, start, end, parent, thread); spans are kept in memory
// and written as one JSON file when the program exits, so recording costs a
// clock read and a short locked append per boundary. Spans are recorded
// only from the benchmark's own code, around its calls into the library's
// layers; the library itself is not instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Id = std::int64_t;
  static constexpr Id kNoParent = -1;

  struct Span {
    std::string name;
    Id parent = kNoParent;
    std::uint64_t thread = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while the span is open
    double count = 0.0;        ///< work items the span covered, 0 if none
  };

  Tracer();

  /// Opens a span and returns its id (its index in spans()).
  Id begin(const std::string& name, Id parent);
  /// Closes span `id`, recording how many work items it covered.
  void end(Id id, double count = 0.0);

  /// Closed duration of span `id` in seconds.
  [[nodiscard]] double seconds(Id id) const;

  /// A copy of every span recorded so far.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes the spans plus `meta` (already-encoded JSON object text) to
  /// `path`; returns false when the file cannot be written.
  bool write_json(const std::string& path, const std::string& meta) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: a no-op when `tracer` is null, so untraced runs pay nothing
/// beyond a pointer test.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, Tracer::Id parent)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(name, parent) : Tracer::kNoParent) {}
  ~Scope() {
    if (tracer_) tracer_->end(id_, count_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] Tracer::Id id() const { return id_; }
  void set_count(double count) { count_ = count; }

 private:
  Tracer* tracer_;
  Tracer::Id id_;
  double count_ = 0.0;
};

}  // namespace perfbench
