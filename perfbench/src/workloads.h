// The benchmark's workloads: their inputs (made from a seed), how one pass
// over their cells runs through the library's public entry points, the
// references each cell is checked against, and the checks themselves.
//
//   paper_small_n — cluster DES in the paper's regime (N = 10..100).
//   large_fleet   — cluster DES at N = 10^6, the compact engine's
//                   memory-bound regime.
//   paper_bounds  — the analytic stack only: Fig. 10's four panels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/cluster_sim.h"
#include "trace.h"
#include "util/thread_budget.h"

namespace perfbench {

enum class PolicyKind { kSqd2, kJiq, kLeastWork };

/// One cluster-DES cell: Poisson arrivals (total rate rho * n), Exp(1)
/// service, ClusterEngine::kAuto.
struct DesCell {
  int n = 0;
  double rho = 0.0;
  PolicyKind policy = PolicyKind::kSqd2;
  std::uint64_t jobs = 0;
  std::uint64_t warmup = 0;
  std::uint64_t seed = 0;

  bool operator==(const DesCell& o) const {
    return n == o.n && rho == o.rho && policy == o.policy && jobs == o.jobs &&
           warmup == o.warmup && seed == o.seed;
  }
};

/// One Fig. 10 cell: SQ(2) at (N, T, rho); Thm 3 lower and Thm 1 upper
/// solves, plus the exact truncated solve when `exact` is set.
struct BoundsCell {
  int n = 0;
  int t = 0;
  double rho = 0.0;
  bool exact = false;

  bool operator==(const BoundsCell& o) const {
    return n == o.n && t == o.t && rho == o.rho && exact == o.exact;
  }
};

/// A workload's inputs. Exactly one of `des` and `bounds` is non-empty.
struct Workload {
  std::string name;
  std::vector<DesCell> des;
  std::vector<BoundsCell> bounds;

  [[nodiscard]] std::size_t cells() const { return des.size() + bounds.size(); }
  bool operator==(const Workload& o) const {
    return name == o.name && des == o.des && bounds == o.bounds;
  }
};

/// Names make_workload accepts, in the order the documentation lists them.
const std::vector<std::string>& workload_names();

/// The inputs of workload `name` made from `seed` (the DES workloads derive
/// one seed per cell from it; paper_bounds ignores it). Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// A smaller copy for warm-up passes and the self-test: DES job counts
/// divided by `divisor`; for paper_bounds, Fig. 10(a)'s cells only.
Workload shrink(const Workload& w, std::uint64_t divisor);

/// Outputs of one bounds cell. `upper` is meaningful only when
/// `upper_stable` (an unstable upper model is an expected outcome).
struct BoundsOutput {
  double lower = 0.0;
  double upper = 0.0;
  bool upper_stable = false;
  int logred_iterations = 0;
  double exact = 0.0;
  double exact_mass = 0.0;
};

struct CellOutput {
  rlb::sim::ClusterResult des;
  BoundsOutput bounds;
  double host_s = 0.0;  ///< thread CPU time of this cell's library calls
};

/// One pass over every cell of a workload.
struct Rep {
  std::vector<CellOutput> cells;
  double wall_s = 0.0;
};

/// Runs every cell once through engine::parallel_map on `budget`. With a
/// tracer, records a span per cell and per library call under `parent`.
Rep run_rep(const Workload& w, rlb::util::ThreadBudget& budget,
            Tracer* tracer = nullptr, Tracer::Id parent = Tracer::kNoParent);

/// Work items in one pass: simulated arrivals for the DES workloads,
/// solver calls (lower, upper, exact) for paper_bounds.
double work_units(const Workload& w);

/// Per-cell references, computed outside the timed region.
struct DesReference {
  double lower = -1.0;  ///< Thm 3 lower bound (SQ(2), N <= 100), -1 if n/a
  double upper = -1.0;  ///< Thm 1 upper bound where stable, -1 otherwise
  double mmn = -1.0;    ///< M/M/N delay: no dispatcher beats it (N <= 100)
  double mm1 = -1.0;    ///< M/M/1 delay: random routing, beaten by all
  double transient = -1.0;  ///< large_fleet: mean-field delay from empty
};
struct BoundsReference {
  double generic_lower = -1.0;  ///< Thm 1 solve of the lower model, N <= 6
};
struct References {
  std::vector<DesReference> des;
  std::vector<BoundsReference> bounds;
};

References compute_references(const Workload& w,
                              rlb::util::ThreadBudget& budget);

/// Why cell `i`'s output is wrong; empty when every check passes.
std::vector<std::string> check_cell(const Workload& w, const References& refs,
                                    std::size_t i, const CellOutput& out);

/// True when two outputs of the same cell agree bit for bit in every
/// simulated or solved value (host time excluded).
bool same_output(const CellOutput& a, const CellOutput& b);

/// Mean sojourn of the SQ(d) mean-field limit started empty, averaged
/// over arrivals with per-server index in [warmup_per_server,
/// jobs_per_server) — the N -> infinity value of large_fleet's transient
/// measurement.
double mean_field_transient_delay(double rho, int d, double warmup_per_server,
                                  double jobs_per_server);

/// Human-readable name of a cell, e.g. "sq2 N=10 rho=0.90".
std::string cell_label(const Workload& w, std::size_t i);

}  // namespace perfbench
