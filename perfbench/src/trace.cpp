#include "trace.h"

#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Id Tracer::begin(const std::string& name, Id parent) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  s.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<Id>(spans_.size() - 1);
}

void Tracer::end(Id id, double count) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
  spans_[static_cast<std::size_t>(id)].count = count;
}

double Tracer::seconds(Id id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.end_ns < 0 ? 0.0 : 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_json(const std::string& path,
                        const std::string& meta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"meta\": %s,\n \"spans\": [\n", meta.c_str());
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    // Span names are fixed identifiers from rlb_perfbench: no escaping needed.
    std::fprintf(f,
                 "  {\"id\": %zu, \"parent\": %lld, \"name\": \"%s\", "
                 "\"thread\": %llu, \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"count\": %.17g}%s\n",
                 i, static_cast<long long>(s.parent), s.name.c_str(),
                 static_cast<unsigned long long>(s.thread),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.count,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, " ]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
