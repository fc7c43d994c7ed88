// Scenario registry: every experiment in bench/ and examples/ registers
// itself here (name, description, parameter schema, run function) and the
// single rlb_run driver looks it up, parses its parameters, runs it —
// fanning sweep cells across worker threads — and feeds the result to the
// text/CSV/JSON sinks.
//
// Authoring a scenario is ~30 lines in one translation unit. A cacheable
// cluster sweep declares one CellSpec per cell, and the same CellSpec
// yields both the cache key and the compute's inputs:
//
//   namespace {
//   rlb::engine::ScenarioOutput run(rlb::engine::ScenarioContext& ctx) {
//     const int n = static_cast<int>(ctx.cli().get_int("n", 10));
//     const std::vector<double> rhos{0.5, 0.9};
//     std::vector<rlb::engine::CellSpec> specs;
//     for (std::size_t r = 0; r < rhos.size(); ++r)
//       specs.push_back(rlb::engine::CellSpec()
//                           .set("seed", rlb::engine::cell_seed(7, r))
//                           .set("n", n)
//                           .set("rho", rhos[r]));
//     const auto cells = ctx.map_cells(
//         "my_scenario", specs,
//         [&](const rlb::engine::CellSpec& cell,
//             const rlb::engine::CellRecord* refine_from) {
//           rlb::sim::ClusterConfig cfg;  // servers, jobs, seed from cell
//           ...
//           return rlb::engine::run_cluster_cell(
//               ctx, cfg, policy, arrivals, *service, refine_from,
//               {&rlb::sim::ClusterResult::mean_sojourn});
//         });
//     rlb::engine::ScenarioOutput out;
//     auto& table = out.add_table("main", {"rho", "delay"});
//     for (std::size_t r = 0; r < rhos.size(); ++r)
//       table.add_row_numeric({rhos[r], cells[r].values[0]});
//     return out;
//   }
//   const rlb::engine::ScenarioRegistrar reg{{
//       "my_scenario",
//       "one-line description",
//       {{"n", "number of servers", "10"}},
//       run}};
//   }  // namespace
//
// Uncached scenarios use ctx.map(count, fn) over plain indices instead.
//
// Cells must derive all randomness from fixed per-cell seeds (see
// engine/sweep.h) so the thread count never changes the output.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "engine/result_cache.h"
#include "engine/sink.h"
#include "engine/sweep.h"
#include "sim/cluster_sim.h"
#include "sim/replica.h"
#include "util/cli.h"

namespace rlb::engine {

/// One declared scenario parameter; purely descriptive (parsing happens
/// through util::Cli), used by --list/--describe and the docs.
struct ParamSpec {
  std::string name;
  std::string description;
  std::string default_value;
};

/// The precision-targeted run-length request parsed from the global
/// `--target-ci` flag family (docs/PRECISION.md). `target_ci == 0` —
/// the default — means adaptive mode is off and scenarios run their
/// fixed budgets. Zero-valued job fields mean "derive from the
/// scenario's fixed budget" (see ScenarioContext::adaptive_plan).
struct AdaptiveSpec {
  double target_ci = 0.0;
  double confidence = 0.95;
  std::uint64_t initial_jobs = 0;
  std::uint64_t max_jobs = 0;
  double growth_factor = 2.0;
  sim::WarmupPolicy warmup_policy = sim::WarmupPolicy::kFixed;
  std::uint64_t warmup_jobs = 0;
  /// Whether --warmup-jobs appeared on the command line: an explicit 0
  /// (a legitimate "no warmup" request) must not fall back to the
  /// derived default the way an absent flag does.
  bool warmup_jobs_set = false;
  double warmup_fraction = 0.1;
  /// Round-size planner (--planner=geometric|variance): geometric is the
  /// fixed initial * growth^r schedule, variance sizes later rounds from
  /// the observed half-width (sim::PlannerKind, docs/PRECISION.md).
  sim::PlannerKind planner = sim::PlannerKind::kGeometric;

  [[nodiscard]] bool enabled() const { return target_ci > 0.0; }

  /// Parse the --target-ci family from `cli` (also marking the flags as
  /// known, so util::Cli::finish() accepts them). Throws
  /// std::invalid_argument on malformed values.
  static AdaptiveSpec parse(const util::Cli& cli);
};

/// One sweep cell declared as data: its named coordinates, typed as the
/// scenario set them. ScenarioContext::map_cells derives the cell's
/// CacheKey from exactly these coordinates (each rendered by the
/// matching CacheKey::set overload) and hands the same object to the
/// compute, so a coordinate the compute reads is a coordinate the key
/// carries. Coordinates the compute ignores (a table name) are fine:
/// they only make keys more distinct.
class CellSpec {
 public:
  using Value = std::variant<int, std::uint64_t, double, std::string>;

  /// Adds a coordinate, replacing an earlier one of the same name.
  CellSpec& set(const std::string& name, Value value);

  /// The coordinate's value; throws std::logic_error when `name` is
  /// absent or was set with another type.
  template <typename T>
  [[nodiscard]] const T& get(const std::string& name) const {
    const T* value = std::get_if<T>(&find(name));
    if (value == nullptr)
      throw std::logic_error("cell coordinate '" + name +
                             "' was set with another type");
    return *value;
  }

  /// Sets every coordinate on `key`.
  void add_to(CacheKey& key) const;

 private:
  [[nodiscard]] const Value& find(const std::string& name) const;

  std::vector<std::pair<std::string, Value>> coords_;
};

/// Handed to the scenario's run function: its CLI parameters, the
/// requested replica count, the adaptive-precision request, and the
/// run's shared thread budget, from which both the cell-level map() and
/// any within-cell replica parallelism (sim/replica.h) draw their
/// workers.
class ScenarioContext {
 public:
  ScenarioContext(const util::Cli& cli, int threads, int replicas = 1,
                  ResultCache* cache = nullptr)
      : cli_(cli),
        threads_(resolve_threads(threads)),
        replicas_(replicas),
        adaptive_(AdaptiveSpec::parse(cli)),
        cache_(cache),
        refine_(cli.get_bool("refine")),
        budget_(threads_) {}  // threads_ resolved first (declaration order)

  [[nodiscard]] const util::Cli& cli() const { return cli_; }
  [[nodiscard]] int threads() const { return threads_; }

  /// Replicas requested via --replicas; scenarios pass this into their
  /// simulation configs for the big-N cells. Affects the output (R
  /// replicas merge R decorrelated streams) but never varies with the
  /// thread count, preserving the determinism contract.
  [[nodiscard]] int replicas() const { return replicas_; }

  /// The precision-targeted run-length request (--target-ci family).
  /// Scenarios that support adaptive mode branch on
  /// adaptive().enabled() and report half_width / jobs_used / converged
  /// columns; scenarios that do not simply ignore it (documented in the
  /// catalog's Common flags section).
  [[nodiscard]] const AdaptiveSpec& adaptive() const { return adaptive_; }

  /// Build the sim::AdaptivePlan for one adaptive cell: `base_seed` is
  /// the cell's seed, `fixed_jobs` the budget the scenario would burn in
  /// fixed mode. Explicit --initial-jobs/--max-jobs/--warmup-jobs win;
  /// the derived defaults are initial = max(fixed_jobs / 8,
  /// 30 * replicas) (round 0 is an eighth of the fixed budget, floored
  /// so every replica gets a measurable shard), max = 32 * initial
  /// (adaptive may spend up to 4x the fixed budget before giving up),
  /// and per-replica warmup = initial / (10 * replicas) (round 0
  /// discards the usual 10%; under the default kFixed policy later
  /// rounds keep that ABSOLUTE warmup).
  [[nodiscard]] sim::AdaptivePlan adaptive_plan(
      std::uint64_t base_seed, std::uint64_t fixed_jobs) const;

  /// The run-wide worker budget; hand it to the simulators so replica
  /// parallelism shares the pool with cell parallelism.
  [[nodiscard]] util::ThreadBudget& budget() const { return budget_; }

  /// results[i] = fn(i), computed on the context's worker budget; output
  /// is invariant under the thread count (see engine/sweep.h).
  template <typename T, typename Fn>
  std::vector<T> map(std::size_t count, Fn&& fn) const {
    return parallel_map<T>(count, budget_, std::forward<Fn>(fn));
  }

  /// The run's persistent result cache (--cache), or nullptr when the
  /// run is uncached.
  [[nodiscard]] ResultCache* cache() const { return cache_; }

  /// Whether --refine was requested: cache lookups may resume a
  /// looser-target record's round state instead of recomputing.
  [[nodiscard]] bool refine() const { return refine_; }

  /// The cache-aware sweep over a declared cell list: results[i] is
  /// compute(cells[i], refine_from). Each cell's CacheKey is derived
  /// from cells[i] itself plus the run-level coordinates (see cell_key),
  /// so the key and the compute read the same object. A cell comes from
  /// the cache when its record satisfies the current precision target,
  /// from a round-state resumption (refine_from != nullptr) when
  /// --refine allows it, and from scratch otherwise — computed on the
  /// same worker budget as map(), with lookups and stores serial around
  /// the parallel region, so the table stays invariant under the thread
  /// count AND under cache warmth. The returned records' target_ci is
  /// stamped here. Throws std::logic_error when two cells derive the
  /// same key (a coordinate that varies within the sweep is missing),
  /// cached or not.
  std::vector<CellRecord> map_cells(
      const std::string& scenario, const std::vector<CellSpec>& cells,
      const std::function<CellRecord(const CellSpec&, const CellRecord*)>&
          compute) const;

 private:
  /// `cell`'s coordinates on top of the run-level ones every cell shares:
  /// replicas and the --target-ci family EXCEPT target-ci itself (stored
  /// in the record instead, so --refine can find looser-target entries;
  /// docs/CACHING.md).
  [[nodiscard]] CacheKey cell_key(const std::string& scenario,
                                  const CellSpec& cell) const;

  const util::Cli& cli_;
  int threads_;
  int replicas_;
  AdaptiveSpec adaptive_;
  ResultCache* cache_;
  bool refine_;
  // Worker-slot accounting mutates under const map(); the budget is
  // internally synchronized.
  mutable util::ThreadBudget budget_;
};

/// The statistics of a sim::ClusterResult a cluster cell records, in
/// CellRecord::values order.
using ClusterColumns = std::vector<double sim::ClusterResult::*>;

/// One cluster-DES cell as every scenario runs it: the fixed budget
/// cfg.jobs, or under --target-ci an adaptive run planned by
/// ctx.adaptive_plan(cfg.seed, cfg.jobs) that checkpoints its round state
/// — resumed from `refine_from`'s checkpoint when map_cells hands one
/// over (pass nullptr outside map_cells). values[k] is the result's
/// columns[k]; the adaptive report rides in the record.
CellRecord run_cluster_cell(const ScenarioContext& ctx,
                            const sim::ClusterConfig& cfg,
                            sim::Policy& policy,
                            sim::ArrivalProcess& arrivals,
                            const sim::Distribution& service,
                            const CellRecord* refine_from,
                            const ClusterColumns& columns);

struct Scenario {
  std::string name;         ///< registry key, e.g. "power_of_d"
  std::string description;  ///< one-line summary for --list
  std::vector<ParamSpec> params;
  std::function<ScenarioOutput(ScenarioContext&)> run;
};

class UnknownScenarioError : public std::runtime_error {
 public:
  explicit UnknownScenarioError(const std::string& message)
      : std::runtime_error(message) {}
};

class ScenarioRegistry {
 public:
  /// The process-wide registry that ScenarioRegistrar populates.
  static ScenarioRegistry& global();

  /// Throws std::invalid_argument on an empty name, missing run function,
  /// or duplicate registration.
  void add(Scenario scenario);

  /// Throws UnknownScenarioError (message lists known names) on a miss.
  [[nodiscard]] const Scenario& get(const std::string& name) const;

  [[nodiscard]] bool contains(const std::string& name) const;

  /// All scenarios, sorted by name.
  [[nodiscard]] std::vector<const Scenario*> list() const;

  [[nodiscard]] std::size_t size() const { return by_name_.size(); }

 private:
  std::map<std::string, Scenario> by_name_;
};

/// Static-object self-registration into the global registry.
struct ScenarioRegistrar {
  explicit ScenarioRegistrar(Scenario scenario) {
    ScenarioRegistry::global().add(std::move(scenario));
  }
};

/// The self-documenting scenario catalog: one markdown section per
/// scenario (sorted by name) with its description and parameter-schema
/// table. `rlb_run --list --markdown` prints it and docs/SCENARIOS.md
/// commits it; CI regenerates the file and fails on drift, so the
/// rendering must stay deterministic.
std::string markdown_catalog(const std::vector<const Scenario*>& scenarios);

}  // namespace rlb::engine
