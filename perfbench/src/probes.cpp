#include "probes.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "linalg/matrix.h"
#include "qbd/logred.h"
#include "qbd/solver.h"
#include "sim/calendar_queue.h"
#include "sim/cluster_accum.h"
#include "sim/cluster_sim.h"
#include "sim/distributions.h"
#include "sim/level_directory.h"
#include "sim/policy.h"
#include "sim/rng.h"
#include "sqd/blocks_builder.h"
#include "sqd/bound_solver.h"
#include "sqd/exact_reference.h"
#include "util/thread_budget.h"

namespace perfbench {

namespace {

using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;

// Keeps probe results observable so the timed loops are not folded away.
volatile double g_sink = 0.0;

constexpr std::uint64_t kProbeSeed = 0x9e3779b97f4a7c15ull;

/// Runs `fn` inside span `name` covering `count` work items; returns the
/// span's duration in seconds.
template <typename Fn>
double span_seconds(Tracer& tracer, Tracer::Id parent, const char* name,
                    double count, Fn&& fn) {
  Tracer::Id id = Tracer::kNoParent;
  {
    Scope span(&tracer, name, parent);
    span.set_count(count);
    id = span.id();
    fn();
  }
  return tracer.seconds(id);
}

/// Stationary SQ(2) mean-field tail: fraction of servers with >= k jobs.
double sq2_tail(double rho, int k) {
  return std::pow(rho, std::pow(2.0, k) - 1.0);
}

/// A directory holding round(n * tail(k)) servers at level >= k.
rlb::sim::LevelDirectory filled_directory(const ProbeCell& cell) {
  rlb::sim::LevelDirectory dir(cell.n);
  for (int k = 1;; ++k) {
    const int count =
        static_cast<int>(std::lround(cell.n * sq2_tail(cell.rho, k)));
    if (count == 0) break;
    for (int s = 0; s < count; ++s) dir.increment(s);
  }
  return dir;
}

double sim_time_per_job(const ProbeCell& cell, rlb::sim::ClusterEngine engine,
                        Tracer& tracer, Tracer::Id parent, const char* name) {
  rlb::sim::ClusterConfig cfg;
  cfg.servers = cell.n;
  cfg.jobs = cell.jobs;
  cfg.warmup = cell.jobs / 10;
  cfg.seed = kProbeSeed;
  cfg.engine = engine;
  rlb::sim::SqdPolicy policy(cell.n, 2);
  const auto ia = rlb::sim::make_exponential(cell.rho * cell.n);
  const auto sv = rlb::sim::make_exponential(1.0);
  const double jobs = static_cast<double>(cell.jobs);
  return span_seconds(tracer, parent, name, jobs, [&] {
           g_sink = rlb::sim::simulate_cluster(cfg, policy, *ia, *sv)
                        .mean_sojourn;
         }) /
         jobs;
}

void sim_probes(const ProbeCell& cell, const std::string& prefix,
                Tracer& tracer, Tracer::Id parent, std::vector<Metric>& out) {
  rlb::sim::Rng rng(kProbeSeed);
  const std::uint64_t reps = 2'000'000;
  const double per_rep = 1e9 / static_cast<double>(reps);

  // Interarrival plus service draw, as the engines make them per job.
  const auto ia = rlb::sim::make_exponential(cell.rho * cell.n);
  const auto sv = rlb::sim::make_exponential(1.0);
  const double draw = span_seconds(tracer, parent, "sim.draw", reps, [&] {
    double sum = 0.0;
    for (std::uint64_t i = 0; i < reps; ++i)
      sum += ia->sample(rng) + sv->sample(rng);
    g_sink = sum;
  });

  // Dispatch against a directory at the stationary occupancy.
  rlb::sim::LevelDirectory dir = filled_directory(cell);
  rlb::sim::SqdPolicy policy(cell.n, 2);
  const double dispatch =
      span_seconds(tracer, parent, "sim.dispatch", reps, [&] {
        long sum = 0;
        for (std::uint64_t i = 0; i < reps; ++i)
          sum += policy.select_direct(dir, rng);
        g_sink = static_cast<double>(sum);
      });

  // One job's directory traffic: an increment and a decrement.
  std::vector<int> servers(reps);
  for (int& s : servers)
    s = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(cell.n)));
  const double directory =
      span_seconds(tracer, parent, "sim.directory", reps, [&] {
        for (const int s : servers) {
          dir.increment(s);
          dir.decrement(s);
        }
        g_sink = dir.max_level();
      });

  // One hold (pop + push of a departure) at ~rho N pending events.
  constexpr std::size_t kRing = 1 << 16;
  std::vector<double> incr(kRing);
  for (double& x : incr) x = rng.exponential(1.0);
  rlb::sim::CalendarQueue queue;
  const auto pending = std::max<std::int64_t>(
      1, std::llround(cell.rho * static_cast<double>(cell.n)));
  for (std::int64_t i = 0; i < pending; ++i)
    queue.push(rng.exponential(1.0), static_cast<std::int32_t>(i));
  const auto hold = [&](std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto [t, id] = queue.pop();
      queue.push(t + incr[i & (kRing - 1)], id);
    }
  };
  hold(reps / 4);  // let the calendar settle its bucket width
  const double event_queue =
      span_seconds(tracer, parent, "sim.event_queue", reps,
                   [&] { hold(reps); });
  g_sink = queue.top().first;

  // Per-job statistics: moments, batch means and the quantile reservoir,
  // sized as the engines size them for the probe cell.
  const std::uint64_t measured = cell.jobs - cell.jobs / 10;
  rlb::sim::ClusterAccum acc;
  acc.sojourn_ci = rlb::sim::BatchMeans(std::max<std::uint64_t>(1, measured / 30));
  acc.sojourn_quantiles = rlb::sim::ReservoirQuantiles(100'000, kProbeSeed);
  const double stats = span_seconds(
      tracer, parent, "sim.stats", static_cast<double>(measured), [&] {
        double now = 0.0;
        for (std::uint64_t i = 0; i < measured; ++i) {
          now += 1e-3;
          const double sojourn = incr[i & (kRing - 1)];
          acc.record_departure(now, now - sojourn, 0.5 * sojourn, true);
        }
        g_sink = acc.sojourn_stats.mean();
      });

  const double draw_ns = draw * per_rep;
  const double dispatch_ns = dispatch * per_rep;
  const double directory_ns = directory * per_rep;
  const double event_queue_ns = event_queue * per_rep;
  const double stats_ns = stats * 1e9 / static_cast<double>(measured);
  out.push_back({prefix + "draw_ns", "ns", draw_ns});
  out.push_back({prefix + "dispatch_ns", "ns", dispatch_ns});
  out.push_back({prefix + "directory_ns", "ns", directory_ns});
  out.push_back({prefix + "event_queue_ns", "ns", event_queue_ns});
  out.push_back({prefix + "stats_ns", "ns", stats_ns});

  // The same cell end to end, single-threaded, on the engine kAuto picks.
  const int cell_reps = cell.n > 1000 ? 1 : 3;
  std::vector<double> per_job;
  for (int r = 0; r < cell_reps; ++r)
    per_job.push_back(sim_time_per_job(cell, rlb::sim::ClusterEngine::kAuto,
                                       tracer, parent, "sim.probe_cell"));
  const double cell_ns = median(per_job) * 1e9;
  out.push_back({prefix + "probe_cell_ns_per_job", "ns", cell_ns});
  out.push_back({prefix + "layer_sum_ratio", "ratio",
                 (draw_ns + dispatch_ns + directory_ns + event_queue_ns +
                  stats_ns) /
                     cell_ns});
  out.push_back({prefix + "working_set_mb", "MB", working_set(cell).total_mb()});
}

void engine_ratio_probes(Tracer& tracer, Tracer::Id parent,
                         std::vector<Metric>& out) {
  for (const int n : {10, 100}) {
    const ProbeCell cell{n, 0.9, 300'000};
    std::vector<double> ratios;
    for (int r = 0; r < 3; ++r) {
      const double compact =
          sim_time_per_job(cell, rlb::sim::ClusterEngine::kCompact, tracer,
                           parent, "sim.compact_cell");
      const double legacy =
          sim_time_per_job(cell, rlb::sim::ClusterEngine::kLegacy, tracer,
                           parent, "sim.legacy_cell");
      ratios.push_back(compact / legacy);
    }
    out.push_back({"sim.compact_legacy_ratio_n" + std::to_string(n), "ratio",
                   median(ratios)});
  }
}

void bounds_probes(Tracer& tracer, Tracer::Id parent,
                   std::vector<Metric>& out) {
  const Params p{12, 2, 0.7, 1.0};
  const BoundModel upper(p, 3, BoundKind::Upper);
  const BoundModel lower(p, 3, BoundKind::Lower);
  constexpr int kReps = 3;
  std::vector<double> build, logred, rate, boundary, whole, improved, exact;
  int iterations = 0;
  for (int r = 0; r < kReps; ++r) {
    std::optional<rlb::sqd::BoundQbd> q;
    build.push_back(span_seconds(tracer, parent, "sqd.build_bound_qbd", 1, [&] {
      q.emplace(rlb::sqd::build_bound_qbd(upper));
    }));
    const auto& b = q->blocks;
    rlb::qbd::GResult g;
    logred.push_back(
        span_seconds(tracer, parent, "qbd.logarithmic_reduction", 1, [&] {
          g = rlb::qbd::logarithmic_reduction(b.A0, b.A1, b.A2);
        }));
    iterations = g.iterations;
    rate.push_back(
        span_seconds(tracer, parent, "qbd.rate_matrix_from_g", 1, [&] {
          g_sink = rlb::qbd::rate_matrix_from_g(b.A0, b.A1, g.G)(0, 0);
        }));
    // The scalar-rate solve is the boundary stage alone: drift check plus
    // the dense boundary system of size boundary + 2 * block.
    boundary.push_back(
        span_seconds(tracer, parent, "qbd.solve_scalar", 1, [&] {
          g_sink = rlb::qbd::solve_scalar(b, std::pow(p.rho(), p.N))
                       .total_probability;
        }));
    whole.push_back(span_seconds(tracer, parent, "sqd.solve_bound", 1, [&] {
      g_sink = rlb::sqd::solve_bound(upper).mean_delay;
    }));
    improved.push_back(
        span_seconds(tracer, parent, "sqd.solve_lower_improved", 1, [&] {
          g_sink = rlb::sqd::solve_lower_improved(lower).mean_delay;
        }));
    exact.push_back(
        span_seconds(tracer, parent, "sqd.solve_exact_truncated", 1, [&] {
          g_sink = rlb::sqd::solve_exact_truncated(Params{3, 2, 0.7, 1.0}, 36)
                       .mean_delay;
        }));
  }
  const double stages =
      median(build) + median(logred) + median(rate) + median(boundary);
  out.push_back({"sqd.build_ms", "ms", median(build) * 1e3});
  out.push_back({"qbd.logred_ms", "ms", median(logred) * 1e3});
  out.push_back({"qbd.logred_iters", "count", static_cast<double>(iterations)});
  out.push_back({"qbd.rate_ms", "ms", median(rate) * 1e3});
  out.push_back({"qbd.boundary_ms", "ms", median(boundary) * 1e3});
  out.push_back({"sqd.upper_ms", "ms", median(whole) * 1e3});
  out.push_back({"sqd.stage_sum_ratio", "ratio", stages / median(whole)});
  out.push_back({"sqd.lower_improved_ms", "ms", median(improved) * 1e3});
  out.push_back({"sqd.exact_ms", "ms", median(exact) * 1e3});

  // Dense product at the (12, 3) block size; 2 m^3 flops, computed.
  const std::size_t m = 364;
  rlb::linalg::Matrix a(m, m), c(m, m);
  rlb::sim::Rng rng(kProbeSeed);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j) {
      a(i, j) = rng.next_double();
      c(i, j) = rng.next_double();
    }
  std::vector<double> matmul;
  for (int r = 0; r < 5; ++r)
    matmul.push_back(span_seconds(tracer, parent, "linalg.matmul", 1, [&] {
      g_sink = (a * c)(m - 1, m - 1);
    }));
  const double flops = 2.0 * static_cast<double>(m * m * m);
  out.push_back({"linalg.matmul_gflops", "GFLOP/s",
                 flops / median(matmul) * 1e-9});
}

}  // namespace

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

WorkingSet working_set(const ProbeCell& cell) {
  // Byte sizes pinned by static_asserts in the compact engine: a 64-byte
  // ServerSlot and a 16-byte directory record per server, plus a 4-byte
  // by-level permutation entry; 56-byte calendar buckets at ~1 pending
  // departure each (one per busy server); 32-byte pool records for the
  // jobs queued behind a head (stationary SQ(2) mean field).
  constexpr double kMb = 1024.0 * 1024.0;
  const double n = cell.n;
  double queued = 0.0;
  for (int k = 2; k < 64; ++k) queued += sq2_tail(cell.rho, k);
  WorkingSet ws;
  ws.per_server_mb = n * (64 + 16 + 4) / kMb;
  ws.event_queue_mb = cell.rho * n * 56 / kMb;
  ws.pool_mb = queued * n * 32 / kMb;
  return ws;
}

std::vector<Metric> run_layer_probes(Tracer& tracer, Tracer::Id parent) {
  std::vector<Metric> out;
  sim_probes(kPaperCell, "sim.", tracer, parent, out);
  sim_probes(kFleetCell, "sim.fleet.", tracer, parent, out);
  engine_ratio_probes(tracer, parent, out);
  bounds_probes(tracer, parent, out);
  return out;
}

}  // namespace perfbench
