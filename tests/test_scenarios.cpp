// End-to-end checks of registered scenarios through the global registry
// (this binary links the bench/ and examples/ scenario translation units,
// unlike the unit-test binaries). The key property is the rlb_run
// contract: for a fixed --replicas value, the rendered output of a
// scenario is bit-identical for every thread count.
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/scenario.h"
#include "engine/sink.h"
#include "engine/sweep.h"
#include "sim/cluster_sim.h"
#include "sim/distributions.h"
#include "util/cli.h"
#include "util/table.h"

#ifndef RLB_SOURCE_DIR
#error "RLB_SOURCE_DIR must point at the repository root"
#endif

namespace {

using rlb::engine::Scenario;
using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioRegistry;

/// Render one scenario run (args as an rlb_run-style flag list) to JSON,
/// optionally through a result cache (the rlb_run --cache path).
std::string run_to_json(const std::string& name,
                        std::vector<std::string> args, int threads,
                        int replicas,
                        rlb::engine::ResultCache* cache = nullptr) {
  const Scenario& scenario = ScenarioRegistry::global().get(name);
  args.insert(args.begin(), "test_scenarios");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  const rlb::util::Cli cli(static_cast<int>(argv.size()), argv.data());
  ScenarioContext ctx(cli, threads, replicas, cache);
  return rlb::engine::to_json(scenario.run(ctx), name);
}

struct QuickScenario {
  std::string name;
  std::vector<std::string> args;  ///< small job counts: ~1s per run
};

std::vector<QuickScenario> new_scenarios() {
  return {
      {"policy_comparison", {"--jobs=30000"}},
      {"batch_arrivals", {"--jobs=30000"}},
      {"hetero_fleet_bounds", {"--steps=120000", "--arrivals=60000"}},
      // Cluster-engine fleet sweep, shrunk to test scale; --time stays 0
      // so the output is deterministic (the wall-clock column is the one
      // documented exception to the determinism contract).
      {"fleet_scaling",
       {"--nmin=32", "--nmax=128", "--nstep=2", "--jobs-per-server=200"}},
      // The realistic-workload pair: heavy-tailed service columns and the
      // windowed / SLA diurnal capacity sweep.
      {"heavy_tail_service", {"--jobs=15000"}},
      {"diurnal_surge", {"--jobs=20000", "--ns=10,14"}},
      // Racked topology sweep: blind vs locality-aware dispatch through
      // the engine's rack-aware paths (37 cells, so small per-cell
      // budgets).
      {"rack_locality", {"--jobs=8000"}},
  };
}

TEST(Scenarios, NewScenariosAreRegistered) {
  for (const auto& s : new_scenarios())
    EXPECT_TRUE(ScenarioRegistry::global().contains(s.name)) << s.name;
}

TEST(Scenarios, ThreadCountNeverChangesOutput) {
  for (const auto& s : new_scenarios()) {
    const std::string one = run_to_json(s.name, s.args, 1, 1);
    const std::string four = run_to_json(s.name, s.args, 4, 1);
    EXPECT_EQ(one, four) << s.name;
  }
}

TEST(Scenarios, ThreadCountNeverChangesOutputWithReplicas) {
  for (const auto& s : new_scenarios()) {
    const std::string one = run_to_json(s.name, s.args, 1, 2);
    const std::string four = run_to_json(s.name, s.args, 4, 2);
    EXPECT_EQ(one, four) << s.name;
  }
}

TEST(Scenarios, ReplicasChangeOutputDeterministically) {
  for (const auto& s : new_scenarios()) {
    const std::string r1 = run_to_json(s.name, s.args, 2, 1);
    const std::string r2 = run_to_json(s.name, s.args, 2, 2);
    const std::string r2_again = run_to_json(s.name, s.args, 2, 2);
    EXPECT_NE(r1, r2) << s.name;  // R decorrelated streams differ...
    EXPECT_EQ(r2, r2_again) << s.name;  // ...but reproducibly.
  }
}

TEST(Scenarios, AdaptiveModeIsThreadCountInvariantAndReportsColumns) {
  // The --target-ci acceptance contract: adaptive runs stop on their own
  // schedule, report half_width / jobs_used / converged, and stay
  // bit-identical across thread counts (rounds are barriers; replicas
  // seed and merge in index order).
  const std::vector<std::string> args{"--jobs=30000", "--target-ci=0.05",
                                      "--max-jobs=120000"};
  for (int replicas : {1, 2}) {
    const std::string one = run_to_json("power_of_d", args, 1, replicas);
    const std::string four = run_to_json("power_of_d", args, 4, replicas);
    EXPECT_EQ(one, four) << "replicas=" << replicas;
  }
  const std::string out = run_to_json("power_of_d", args, 2, 1);
  for (const char* column : {"half_width", "jobs_used", "converged"})
    EXPECT_NE(out.find(column), std::string::npos) << column;
}

/// The five scenarios PR 5 wired into --target-ci, with budgets small
/// enough for ~seconds-long runs. Together with power_of_d /
/// policy_comparison / tail_distribution / hetero_fleet_bounds this
/// makes all nine sweep scenarios adaptive-capable.
std::vector<QuickScenario> newly_wired_adaptive() {
  const std::vector<std::string> knobs{"--target-ci=0.2",
                                       "--max-jobs=60000"};
  std::vector<QuickScenario> scenarios{
      {"fig09_relative_error", {"--jobs=20000", "--rho=0.75"}},
      {"fig10_delay_vs_utilization", {"--jobs=20000", "--panel=a"}},
      {"sigma_gi", {"--jobs=20000"}},
      {"waiting_profile", {"--jobs=20000"}},
      {"batch_arrivals", {"--jobs=20000"}},
  };
  for (auto& s : scenarios)
    s.args.insert(s.args.end(), knobs.begin(), knobs.end());
  return scenarios;
}

TEST(Scenarios, NewlyWiredAdaptiveScenariosAreThreadCountInvariant) {
  // The acceptance contract for the five scenarios wired in this PR:
  // with --target-ci set, 1-thread and 4-thread runs are bit-identical
  // and the adaptive columns appear.
  for (const auto& s : newly_wired_adaptive()) {
    const std::string one = run_to_json(s.name, s.args, 1, 2);
    const std::string four = run_to_json(s.name, s.args, 4, 2);
    EXPECT_EQ(one, four) << s.name;
    for (const char* column : {"half_width", "jobs_used", "converged"})
      EXPECT_NE(one.find(column), std::string::npos)
          << s.name << " lacks " << column;
  }
}

TEST(Scenarios, VariancePlannerIsThreadCountInvariant) {
  // --planner=variance sizes rounds from merged statistics only, so its
  // schedule must be just as thread-count invariant as the geometric
  // default.
  for (const auto& base : newly_wired_adaptive()) {
    auto args = base.args;
    args.push_back("--planner=variance");
    const std::string one = run_to_json(base.name, args, 1, 2);
    const std::string four = run_to_json(base.name, args, 4, 2);
    EXPECT_EQ(one, four) << base.name;
  }
}

TEST(Scenarios, RackLocalityAdaptiveIsThreadCountInvariant) {
  // The new racked sweep drives the rack-aware RNG path (home-rack draws
  // + locality polls) through the adaptive planner; like every sweep it
  // must stay bit-identical across thread counts under both planners.
  for (const char* planner : {"geometric", "variance"}) {
    const std::vector<std::string> args{
        "--jobs=8000", "--target-ci=0.25", "--max-jobs=24000",
        std::string("--planner=") + planner};
    const std::string one = run_to_json("rack_locality", args, 1, 2);
    const std::string four = run_to_json("rack_locality", args, 4, 2);
    EXPECT_EQ(one, four) << planner;
    for (const char* column : {"half_width", "jobs_used", "converged"})
      EXPECT_NE(one.find(column), std::string::npos) << column;
  }
}

TEST(Scenarios, AdaptiveBoundScenarioIsThreadCountInvariant) {
  // hetero_fleet_bounds drives both bound-model simulators through the
  // adaptive path (CTMC jump chain + GI event simulation).
  const std::vector<std::string> args{"--steps=120000", "--arrivals=60000",
                                      "--target-ci=0.2",
                                      "--max-jobs=240000"};
  const std::string one = run_to_json("hetero_fleet_bounds", args, 1, 2);
  const std::string four = run_to_json("hetero_fleet_bounds", args, 4, 2);
  EXPECT_EQ(one, four);
}

TEST(Scenarios, HeavyTailExpColumnReproducesTheLegacyStream) {
  // The scenario's exponential column is the stock M/M path: the same
  // ClusterConfig fed straight into simulate_cluster must land in the
  // rendered table verbatim (the scenario adds no randomness of its own).
  using namespace rlb::sim;
  ClusterConfig cfg;
  cfg.servers = 8;
  cfg.jobs = 15'000;
  cfg.warmup = 1'500;
  cfg.seed = rlb::engine::cell_seed(24680, 0);  // the scenario's row 0
  cfg.replicas = 1;
  const auto interarrival = make_exponential(0.85 * 8);
  const auto service = make_exponential(1.0);
  SqdPolicy policy(8, 2);
  const auto direct = simulate_cluster(cfg, policy, *interarrival, *service);

  const std::string json = run_to_json(
      "heavy_tail_service", {"--jobs=15000", "--dist=exp"}, 2, 1);
  EXPECT_NE(json.find(rlb::util::fmt(direct.mean_sojourn, 4)),
            std::string::npos);
  EXPECT_NE(json.find(rlb::util::fmt(direct.p99_sojourn, 4)),
            std::string::npos);
}

TEST(Scenarios, DiurnalSurgeReplaysTheGoldenTrace) {
  // Trace replay consumes no randomness, so the run is bit-identical
  // across thread counts and the rendered text names the trace stream.
  const std::vector<std::string> args{
      "--jobs=10000", "--ns=10,12",
      std::string("--trace=") + RLB_SOURCE_DIR + "/tests/data/golden.trace"};
  const std::string one = run_to_json("diurnal_surge", args, 1, 2);
  const std::string four = run_to_json("diurnal_surge", args, 4, 2);
  EXPECT_EQ(one, four);

  const Scenario& scenario = ScenarioRegistry::global().get("diurnal_surge");
  std::vector<std::string> argv_store = args;
  argv_store.insert(argv_store.begin(), "test_scenarios");
  std::vector<char*> argv;
  for (auto& a : argv_store) argv.push_back(a.data());
  const rlb::util::Cli cli(static_cast<int>(argv.size()), argv.data());
  ScenarioContext ctx(cli, 2, 1);
  std::ostringstream text;
  rlb::engine::write_text(scenario.run(ctx), text);
  EXPECT_NE(text.str().find("trace(40 jobs/cycle)"), std::string::npos);
}

/// A fresh per-test cache directory under gtest's temp root.
class ScenarioCache : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test AND process: ctest -j runs each test in its own
    // process, so a shared name would race between concurrent tests.
    dir_ = ::testing::TempDir() + "rlb_scenario_cache_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  rlb::engine::ResultCache make_cache(
      rlb::engine::CacheMode mode = rlb::engine::CacheMode::kReadWrite) {
    return rlb::engine::ResultCache(dir_, mode);
  }

  std::string dir_;
};

TEST_F(ScenarioCache, WarmRerunIsByteIdenticalToColdAcrossThreadCounts) {
  // The acceptance contract (docs/CACHING.md): a warm-cache re-run of
  // power_of_d and fleet_scaling renders byte-for-byte what the cold run
  // rendered and what an uncached run renders — at ANY thread count,
  // since cells are keyed semantically and the store/lookup passes are
  // serial.
  const std::vector<QuickScenario> sweeps{
      {"power_of_d", {"--jobs=20000"}},
      {"fleet_scaling",
       {"--nmin=32", "--nmax=128", "--nstep=2", "--jobs-per-server=200"}},
  };
  for (const auto& s : sweeps) {
    std::filesystem::remove_all(dir_);
    const std::string uncached = run_to_json(s.name, s.args, 2, 1);
    auto cold_cache = make_cache();
    const std::string cold = run_to_json(s.name, s.args, 4, 1, &cold_cache);
    EXPECT_EQ(cold, uncached) << s.name << ": caching changed the output";
    EXPECT_EQ(cold_cache.hits(), 0u) << s.name;
    EXPECT_GT(cold_cache.stored(), 0u) << s.name;

    auto warm_cache = make_cache();
    const std::string warm = run_to_json(s.name, s.args, 1, 1, &warm_cache);
    EXPECT_EQ(warm, cold) << s.name << ": warm re-run drifted";
    EXPECT_EQ(warm_cache.misses(), 0u) << s.name;
    EXPECT_EQ(warm_cache.hits(), cold_cache.stored()) << s.name;
    EXPECT_EQ(warm_cache.stored(), 0u) << s.name;
  }
}

TEST_F(ScenarioCache, RackLocalityKeysCellsOnTopologyCoordinates) {
  // Topology coordinates (penalty kind, rack count) are part of the cell
  // key: a warm re-run with identical flags is all hits and byte-
  // identical, while flipping any topology knob shares nothing.
  const std::vector<std::string> args{"--jobs=6000"};
  auto cold_cache = make_cache();
  const std::string cold =
      run_to_json("rack_locality", args, 4, 1, &cold_cache);
  EXPECT_EQ(cold_cache.hits(), 0u);
  EXPECT_GT(cold_cache.stored(), 0u);

  auto warm_cache = make_cache();
  const std::string warm =
      run_to_json("rack_locality", args, 1, 1, &warm_cache);
  EXPECT_EQ(warm, cold) << "warm re-run drifted";
  EXPECT_EQ(warm_cache.misses(), 0u);
  EXPECT_EQ(warm_cache.hits(), cold_cache.stored());

  auto kind_cache = make_cache();
  (void)run_to_json("rack_locality",
                    {"--jobs=6000", "--penalty-kind=capacity"}, 2, 1,
                    &kind_cache);
  EXPECT_EQ(kind_cache.hits(), 0u)
      << "penalty kind missing from the cell key";

  auto racks_cache = make_cache();
  (void)run_to_json("rack_locality",
                    {"--jobs=6000", "--racks=2", "--per-rack=8"}, 2, 1,
                    &racks_cache);
  EXPECT_EQ(racks_cache.hits(), 0u)
      << "rack geometry missing from the cell key";
}

TEST_F(ScenarioCache, PolicyComparisonKeysCellsOnPolicyParameters) {
  // The policy knobs (--d, --jbt-t) are part of every cell key: a warm
  // re-run with identical flags is all hits and byte-identical, while
  // flipping either knob shares nothing.
  const std::vector<std::string> args{"--jobs=6000"};
  auto cold_cache = make_cache();
  const std::string cold =
      run_to_json("policy_comparison", args, 4, 1, &cold_cache);
  EXPECT_EQ(cold_cache.hits(), 0u);
  EXPECT_GT(cold_cache.stored(), 0u);

  auto warm_cache = make_cache();
  const std::string warm =
      run_to_json("policy_comparison", args, 1, 1, &warm_cache);
  EXPECT_EQ(warm, cold) << "warm re-run drifted";
  EXPECT_EQ(warm_cache.misses(), 0u);
  EXPECT_EQ(warm_cache.hits(), cold_cache.stored());

  for (const char* flip : {"--d=3", "--jbt-t=2"}) {
    auto flipped_cache = make_cache();
    (void)run_to_json("policy_comparison", {"--jobs=6000", flip}, 2, 1,
                      &flipped_cache);
    EXPECT_EQ(flipped_cache.hits(), 0u) << flip << " missing from the key";
  }
}

TEST_F(ScenarioCache, GoldenPowerOfDRecordPinsTheVersionStamp) {
  // One small cell pinned end to end: the key the scenario derives, the
  // value it stores and the engine-version stamp it stores it under. A
  // change that moves the value without moving kResultCacheVersion would
  // let stale records resurrect the old numbers.
  constexpr const char* kPinnedVersion = "rlb-cache-v1";
  constexpr const char* kPinnedKey =
      "power_of_d|adaptive=0|jobs=2000|n=10|replicas=1|rho=0.5|"
      "seed=2377346752002162008|task=1";
  constexpr double kPinnedValue = 1.2738767969671043;  // sq(2) delay

  auto cache = make_cache();
  (void)run_to_json("power_of_d", {"--jobs=2000"}, 2, 1, &cache);
  rlb::engine::CacheKey key("power_of_d");
  key.set("adaptive", false);
  key.set("jobs", std::uint64_t{2000});
  key.set("n", 10);
  key.set("replicas", 1);
  key.set("rho", 0.5);
  key.set("seed", rlb::engine::cell_seed(777, 0));
  key.set("task", std::uint64_t{1});
  ASSERT_EQ(key.canonical(), kPinnedKey);

  ASSERT_EQ(std::string(rlb::engine::kResultCacheVersion), kPinnedVersion)
      << "kResultCacheVersion moved: update the pin (key, value, stamp)";
  auto reader = make_cache();
  const auto lookup = reader.lookup(key, 0.0, false);
  ASSERT_EQ(lookup.outcome, rlb::engine::ResultCache::Lookup::Outcome::kHit)
      << "power_of_d no longer derives the pinned key";
  EXPECT_EQ(lookup.record.values.front(), kPinnedValue)
      << "output changed: bump kResultCacheVersion";
}

TEST_F(ScenarioCache, AdaptiveRunsHitUnderBothPlanners) {
  // Adaptive cells key on the planner and stopping knobs; both planners
  // must round-trip through the cache byte-identically.
  for (const char* planner : {"geometric", "variance"}) {
    std::filesystem::remove_all(dir_);
    const std::vector<std::string> args{
        "--jobs=20000", "--target-ci=0.1", "--max-jobs=80000",
        std::string("--planner=") + planner};
    auto cold_cache = make_cache();
    const std::string cold =
        run_to_json("power_of_d", args, 4, 2, &cold_cache);
    auto warm_cache = make_cache();
    const std::string warm =
        run_to_json("power_of_d", args, 1, 2, &warm_cache);
    EXPECT_EQ(warm, cold) << planner;
    EXPECT_EQ(warm_cache.misses(), 0u) << planner;
    EXPECT_GT(warm_cache.hits(), 0u) << planner;
  }
}

TEST_F(ScenarioCache, RefineFromCachedStateEqualsColdRunAtTighterTarget) {
  // The --refine contract end to end: seed the cache at a loose target,
  // re-run with --refine at a tighter one, and compare against an
  // uncached cold run at the tight target — byte-identical under the
  // geometric planner, and cheaper (only solver cells recompute from
  // scratch; every simulated cell resumes its round schedule).
  const std::vector<std::string> base{"--jobs=20000", "--max-jobs=160000"};
  auto loose_args = base;
  loose_args.push_back("--target-ci=0.2");
  auto cache = make_cache();
  (void)run_to_json("power_of_d", loose_args, 4, 1, &cache);

  auto tight_args = base;
  tight_args.push_back("--target-ci=0.1");
  const std::string cold = run_to_json("power_of_d", tight_args, 2, 1);

  auto refine_args = tight_args;
  refine_args.push_back("--refine");
  auto refine_cache = make_cache();
  const std::string refined =
      run_to_json("power_of_d", refine_args, 1, 1, &refine_cache);
  EXPECT_EQ(refined, cold);
  EXPECT_GT(refine_cache.refined(), 0u);
  EXPECT_EQ(refine_cache.hits(), 0u);

  // The refined records now satisfy the tight target: a plain warm
  // re-run at --target-ci=0.1 is all hits.
  auto warm_cache = make_cache();
  const std::string warm =
      run_to_json("power_of_d", tight_args, 4, 1, &warm_cache);
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(warm_cache.misses(), 0u);
}

TEST(Scenarios, MarkdownCatalogCoversEveryScenario) {
  const auto scenarios = ScenarioRegistry::global().list();
  const std::string catalog = rlb::engine::markdown_catalog(scenarios);
  for (const Scenario* s : scenarios) {
    EXPECT_NE(catalog.find("## `" + s->name + "`"), std::string::npos)
        << s->name;
    for (const auto& p : s->params)
      EXPECT_NE(catalog.find("`--" + p.name + "`"), std::string::npos)
          << s->name << " --" << p.name;
  }
  // The global-flag section documents the full rlb_run CLI.
  EXPECT_NE(catalog.find("## Common flags"), std::string::npos);
  for (const char* flag :
       {"`--threads`", "`--replicas`", "`--baseline`", "`--target-ci`",
        "`--confidence`", "`--max-jobs`", "`--warmup-policy`",
        "`--planner`"})
    EXPECT_NE(catalog.find(flag), std::string::npos) << flag;
}

}  // namespace
