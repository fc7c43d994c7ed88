// rlb_perfbench — the repository benchmark program.
//
//   rlb_perfbench --workload <paper_small_n|large_fleet|paper_bounds>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// One process: set up (inputs from the seed, references, a warm-up pass;
// five times, the median reported), then timed passes over every cell
// until --seconds have elapsed, then the correctness checks. --trace 0
// reports the end-to-end metrics; --trace 1 splits the time between
// untraced and traced passes, runs the per-layer probes, reports the
// per-layer metrics and writes its spans to trace-<workload>-<seed>.json
// in the working directory. The last line of stdout is one JSON object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "probes.h"
#include "trace.h"
#include "util/thread_budget.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::median;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "rlb_perfbench: %s\nusage: rlb_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      usage("expected --flag value pairs, got '" + key + "'");
    kv[key.substr(2)] = argv[i + 1];
  }
  try {
    for (const auto& [key, value] : kv) {
      if (key == "workload") o.workload = value;
      else if (key == "seed") o.seed = std::stoull(value);
      else if (key == "seconds") o.seconds = std::stod(value);
      else if (key == "trace") o.trace = std::stoi(value) != 0;
      else usage("unknown flag --" + key);
    }
  } catch (const std::logic_error&) {
    usage("malformed number in the flags");
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end())
    usage("unknown or missing --workload '" + o.workload + "'");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0))
    usage("--seconds must be in (0, 600]");
  return o;
}

// Worker slots for every run: nproc, capped at 4 so that runs on larger
// machines keep the cell-to-thread layout of a 4-core one.
int worker_threads() {
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return std::min(4, hw);
}

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

#ifdef NDEBUG
constexpr bool kRelease = true;
#else
constexpr bool kRelease = false;
#endif

double llc_mb() {
  long bytes = -1;
#ifdef _SC_LEVEL3_CACHE_SIZE
  bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (bytes <= 0) bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
  return bytes > 0 ? static_cast<double>(bytes) / (1024.0 * 1024.0) : -1.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The passes made in one phase of the run, plus their checks.
struct Phase {
  std::vector<perfbench::Rep> reps;
  std::vector<double> ns_per_job;
};

Phase run_phase(const perfbench::Workload& w, rlb::util::ThreadBudget& budget,
                double seconds, perfbench::Tracer* tracer,
                perfbench::Tracer::Id root) {
  Phase phase;
  const double units = perfbench::work_units(w);
  const auto start = Clock::now();
  do {
    perfbench::Scope span(tracer, "rep", root);
    perfbench::Rep rep = perfbench::run_rep(w, budget, tracer, span.id());
    double host = 0.0;
    for (const auto& c : rep.cells) host += c.host_s;
    phase.ns_per_job.push_back(host / units * 1e9);
    phase.reps.push_back(std::move(rep));
  } while (since(start) < seconds);
  return phase;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const int threads = worker_threads();
  try {
    rlb::util::ThreadBudget budget(threads);

    // Set-up: everything before the first timed cell call, five times.
    std::vector<double> setup_s;
    perfbench::Workload w;
    perfbench::References refs;
    for (int i = 0; i < 5; ++i) {
      const auto start = Clock::now();
      w = perfbench::make_workload(opt.workload, opt.seed);
      refs = perfbench::compute_references(w, budget);
      perfbench::run_rep(perfbench::shrink(w, 10), budget);
      setup_s.push_back(since(start));
    }

    perfbench::Tracer tracer;
    const double untraced_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
    const Phase untraced =
        run_phase(w, budget, untraced_seconds, nullptr, perfbench::Tracer::kNoParent);
    const double rss_mb = peak_rss_mb();

    Phase traced;
    std::vector<Metric> layer;
    if (opt.trace) {
      perfbench::Scope root(&tracer, "run", perfbench::Tracer::kNoParent);
      traced = run_phase(w, budget, opt.seconds / 2, &tracer, root.id());
      perfbench::Scope probes(&tracer, "probes", root.id());
      layer = perfbench::run_layer_probes(tracer, probes.id());
    }

    // Checks: every pass's every cell, against the references and against
    // the first pass (the same inputs must give bit-identical outputs).
    std::size_t attempted = 0, failed = 0;
    const perfbench::Rep& first = untraced.reps.front();
    for (const Phase* phase : {&untraced, static_cast<const Phase*>(&traced)}) {
      for (const perfbench::Rep& rep : phase->reps) {
        for (std::size_t i = 0; i < rep.cells.size(); ++i) {
          ++attempted;
          auto bad = perfbench::check_cell(w, refs, i, rep.cells[i]);
          if (!perfbench::same_output(rep.cells[i], first.cells[i]))
            bad.push_back("output differs from the first pass");
          if (bad.empty()) continue;
          ++failed;
          for (const auto& why : bad)
            std::printf("FAIL %s: %s\n", perfbench::cell_label(w, i).c_str(),
                        why.c_str());
        }
      }
    }

    std::vector<Metric> metrics;
    if (!opt.trace) {
      std::vector<double> walls;
      for (const auto& rep : untraced.reps) walls.push_back(rep.wall_s);
      metrics.push_back({"setup_s", "s", median(setup_s)});
      metrics.push_back({"wall_s", "s", median(walls)});
      metrics.push_back({"ns_per_job", "ns", median(untraced.ns_per_job)});
      metrics.push_back({"peak_rss_mb", "MB", rss_mb});
    } else {
      metrics = layer;
      // busy_frac from the spans: cell time over (pass wall x threads).
      const auto spans = tracer.spans();
      std::map<perfbench::Tracer::Id, double> cell_time;
      for (const auto& s : spans)
        if (s.name == "cell")
          cell_time[s.parent] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
      std::vector<double> busy, traced_walls, untraced_walls;
      for (std::size_t id = 0; id < spans.size(); ++id) {
        const auto& s = spans[id];
        if (s.name != "rep") continue;
        const double wall = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
        busy.push_back(cell_time[static_cast<perfbench::Tracer::Id>(id)] /
                       (wall * threads));
        traced_walls.push_back(wall);
      }
      for (const auto& rep : untraced.reps) untraced_walls.push_back(rep.wall_s);
      metrics.push_back({"engine.busy_frac", "fraction", median(busy)});
      metrics.push_back({"trace_overhead_frac", "fraction",
                         (median(traced_walls) - median(untraced_walls)) /
                             median(untraced_walls)});
    }

    // Summary: the machine, the build, and the computed large_fleet
    // working set next to the last-level cache.
    const auto fleet = perfbench::working_set(perfbench::kFleetCell);
    std::printf("workload %s seed %llu threads %d trace %d passes %zu+%zu\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                threads, opt.trace ? 1 : 0, untraced.reps.size(),
                traced.reps.size());
    std::printf("machine nproc %u llc_mb %.1f compiler \"%s\" build %s\n",
                std::thread::hardware_concurrency(), llc_mb(), compiler().c_str(),
                kRelease ? "release (NDEBUG)" : "NOT RELEASE (assertions on)");
    if (!kRelease)
      std::printf("WARNING: non-Release build; timings are not comparable\n");
    std::printf("large_fleet working set (computed) %.1f MB = per-server %.1f "
                "+ event queue %.1f + pool %.1f, vs LLC %.1f MB\n",
                fleet.total_mb(), fleet.per_server_mb, fleet.event_queue_mb,
                fleet.pool_mb, llc_mb());
    std::printf("failed_frac %.6g (%zu of %zu cells)\n",
                attempted ? static_cast<double>(failed) / attempted : 0.0,
                failed, attempted);
    std::printf("pass wall_s");
    for (const auto& rep : untraced.reps) std::printf(" %.4f", rep.wall_s);
    std::printf("\n");
    bool finite = true;
    for (const auto& m : metrics) {
      std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
      finite = finite && std::isfinite(m.value);
    }

    if (opt.trace) {
      const std::string path = "trace-" + opt.workload + "-" +
                               std::to_string(opt.seed) + ".json";
      const std::string meta =
          "{\"workload\": \"" + opt.workload + "\", \"seed\": " +
          std::to_string(opt.seed) + ", \"threads\": " +
          std::to_string(threads) + ", \"release\": " +
          (kRelease ? "true" : "false") + ", \"llc_mb\": " +
          json_number(llc_mb()) + "}";
      if (!tracer.write_json(path, meta))
        std::printf("WARNING: could not write trace to %s\n", path.c_str());
    }

    std::string json = "{\"correct\": ";
    json += (failed == 0 && finite) ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& m = metrics[i];
      json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
              json_number(std::isfinite(m.value) ? m.value : -1.0) +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rlb_perfbench: %s\n", e.what());
    return 1;
  }
}
