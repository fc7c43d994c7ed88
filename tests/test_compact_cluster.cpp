#include "sim/compact_cluster.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "legacy_cluster_oracle.h"
#include "sim/cluster_sim.h"
#include "sim/replica.h"
#include "sqd/exact_reference.h"
#include "util/thread_budget.h"

namespace {

using namespace rlb::sim;

// ---------------------------------------------------------------------------
// LevelDirectory

TEST(LevelDirectory, StartsAllIdleInServerIndexOrder) {
  LevelDirectory dir(4);
  EXPECT_EQ(dir.servers(), 4);
  EXPECT_EQ(dir.max_level(), 0);
  EXPECT_EQ(dir.count_at(0), 4);
  EXPECT_EQ(dir.count_at(1), 0);
  EXPECT_EQ(dir.idle_count(), 4);
  EXPECT_EQ(dir.idle_head(), 0);
  for (int s = 0; s < 4; ++s) EXPECT_EQ(dir.level_of(s), 0);
}

TEST(LevelDirectory, TracksLevelsThroughIncrementDecrement) {
  LevelDirectory dir(3);
  dir.increment(1);
  dir.increment(1);
  dir.increment(2);
  EXPECT_EQ(dir.level_of(0), 0);
  EXPECT_EQ(dir.level_of(1), 2);
  EXPECT_EQ(dir.level_of(2), 1);
  EXPECT_EQ(dir.max_level(), 2);
  EXPECT_EQ(dir.count_at(0), 1);
  EXPECT_EQ(dir.count_at(1), 1);
  EXPECT_EQ(dir.count_at(2), 1);
  EXPECT_EQ(dir.idle_count(), 1);

  dir.decrement(1);
  EXPECT_EQ(dir.level_of(1), 1);
  EXPECT_EQ(dir.max_level(), 1);
  EXPECT_EQ(dir.count_at(1), 2);
  dir.decrement(1);
  dir.decrement(2);
  EXPECT_EQ(dir.max_level(), 0);
  EXPECT_EQ(dir.idle_count(), 3);
}

TEST(LevelDirectory, IdleFifoIsFirstIdleFirstOut) {
  // Busy up 0..3 then idle them in the order 2, 0, 3, 1: the FIFO head
  // must walk that order, matching the legacy I-queue contract.
  LevelDirectory dir(4);
  for (int s = 0; s < 4; ++s) dir.increment(s);
  EXPECT_EQ(dir.idle_count(), 0);
  EXPECT_EQ(dir.idle_head(), -1);
  for (int s : {2, 0, 3, 1}) dir.decrement(s);
  EXPECT_EQ(dir.idle_head(), 2);
  dir.increment(2);
  EXPECT_EQ(dir.idle_head(), 0);
  dir.increment(0);
  EXPECT_EQ(dir.idle_head(), 3);
  // O(1) removal from the middle: retire 1 (the tail), head unchanged.
  dir.increment(1);
  EXPECT_EQ(dir.idle_head(), 3);
  dir.increment(3);
  EXPECT_EQ(dir.idle_head(), -1);
}

TEST(LevelDirectory, BlocksPartitionTheServers) {
  LevelDirectory dir(6);
  Rng rng(7);
  for (int step = 0; step < 2'000; ++step) {
    const int s = static_cast<int>(rng.uniform_int(6));
    if (dir.level_of(s) == 0 || rng.uniform_int(2) == 0)
      dir.increment(s);
    else
      dir.decrement(s);
    // Invariants: counts sum to n, every server is inside its block.
    int total = 0;
    for (int k = 0; k <= dir.max_level(); ++k) total += dir.count_at(k);
    ASSERT_EQ(total, 6);
    for (int v = 0; v < 6; ++v) {
      const int k = dir.level_of(v);
      bool found = false;
      for (int i = 0; i < dir.count_at(k); ++i)
        if (dir.at(k, i) == v) found = true;
      ASSERT_TRUE(found) << "server " << v << " missing from level " << k;
    }
  }
}

TEST(LevelDirectory, SampleAtLevelHitsEveryMember) {
  LevelDirectory dir(8);
  for (int s : {1, 3, 6}) dir.increment(s);
  Rng rng(11);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 3'000; ++i) ++hits[dir.sample_at_level(1, rng)];
  for (int s = 0; s < 8; ++s) {
    if (s == 1 || s == 3 || s == 6)
      EXPECT_GT(hits[s], 800);  // ~1000 each
    else
      EXPECT_EQ(hits[s], 0);
  }
  EXPECT_THROW(static_cast<void>(dir.sample_at_level(2, rng)),
               std::invalid_argument);
}

TEST(LevelDirectory, RandomizedStressMatchesReferenceModel) {
  // Layout-agnostic invariant stress at a size where blocks split and
  // merge constantly: drive the directory with random level moves and
  // check, against a naive reference (a level array plus an idle deque),
  // every observable the public API exposes — per-server levels, counts,
  // block partition, max level, and the FULL idle-FIFO order, head to
  // tail, both through the idle_next links and by draining the FIFO.
  const int n = 64;
  LevelDirectory dir(n);
  std::vector<int> ref_level(n, 0);
  std::deque<int> ref_idle;
  for (int s = 0; s < n; ++s) ref_idle.push_back(s);

  Rng rng(2026);
  for (int step = 0; step < 20'000; ++step) {
    const int s = static_cast<int>(rng.uniform_int(n));
    if (ref_level[s] == 0 || rng.uniform_int(3) > 0) {
      dir.increment(s);
      if (ref_level[s] == 0)
        ref_idle.erase(std::find(ref_idle.begin(), ref_idle.end(), s));
      ++ref_level[s];
    } else {
      dir.decrement(s);
      --ref_level[s];
      if (ref_level[s] == 0) ref_idle.push_back(s);
    }

    ASSERT_EQ(dir.idle_count(), static_cast<int>(ref_idle.size()));
    ASSERT_EQ(dir.idle_head(), ref_idle.empty() ? -1 : ref_idle.front());
    const int ref_max = *std::max_element(ref_level.begin(), ref_level.end());
    ASSERT_EQ(dir.max_level(), ref_max);

    if (step % 500 != 0) continue;  // the full O(n) audit, periodically
    std::vector<int> fifo;
    for (int v = dir.idle_head(); v >= 0; v = dir.idle_next(v))
      fifo.push_back(v);
    ASSERT_EQ(fifo, std::vector<int>(ref_idle.begin(), ref_idle.end()));
    std::vector<int> ref_count(ref_max + 1, 0);
    for (int v = 0; v < n; ++v) {
      ASSERT_EQ(dir.level_of(v), ref_level[v]);
      ++ref_count[ref_level[v]];
    }
    int total = 0;
    for (int k = 0; k <= ref_max; ++k) {
      ASSERT_EQ(dir.count_at(k), ref_count[k]);
      total += dir.count_at(k);
      for (int i = 0; i < dir.count_at(k); ++i)
        ASSERT_EQ(dir.level_of(dir.at(k, i)), k);
    }
    ASSERT_EQ(total, n);
  }

  // Drain the idle FIFO by busying its head repeatedly: the heads must
  // come off in exactly the reference deque's order (first idle, first
  // out), pinning the whole linked-list order, not just the head.
  while (dir.idle_count() > 0) {
    const int head = dir.idle_head();
    ASSERT_EQ(head, ref_idle.front());
    ref_idle.pop_front();
    dir.increment(head);
  }
  EXPECT_EQ(dir.idle_head(), -1);
}

TEST(LevelDirectory, RejectsBadOperations) {
  LevelDirectory dir(2);
  EXPECT_THROW(dir.decrement(0), std::invalid_argument);
  EXPECT_THROW(LevelDirectory(0), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(dir.count_at(-1)), std::invalid_argument);
}

TEST(LevelDirectory, ArmedRackFifosTrackBecameIdleOrderPerRack) {
  LevelDirectory dir(6);
  dir.arm_racks(2);
  EXPECT_EQ(dir.racks(), 2);
  // Time zero: each rack's FIFO holds its servers in index order.
  EXPECT_EQ(dir.rack_idle_head(0, 3), 0);
  EXPECT_EQ(dir.rack_idle_head(3, 6), 3);
  for (int s = 0; s < 6; ++s) dir.increment(s);
  EXPECT_EQ(dir.rack_idle_head(0, 3), -1);
  EXPECT_EQ(dir.rack_idle_head(3, 6), -1);
  // Idle them out of index order: each rack's head is its first-idled.
  for (int s : {4, 1, 3, 0}) dir.decrement(s);
  EXPECT_EQ(dir.rack_idle_head(0, 3), 1);
  EXPECT_EQ(dir.rack_idle_head(3, 6), 4);
  dir.increment(4);
  EXPECT_EQ(dir.rack_idle_head(3, 6), 3);
  dir.increment(1);
  EXPECT_EQ(dir.rack_idle_head(0, 3), 0);
  EXPECT_EQ(dir.idle_head(), 3);  // global FIFO unaffected: 3 idled first
}

TEST(LevelDirectory, ArmRacksValidatesAndUnarmedFallsBack) {
  LevelDirectory dir(6);
  EXPECT_THROW(dir.arm_racks(4), std::invalid_argument);  // 6 % 4 != 0
  EXPECT_THROW(dir.arm_racks(0), std::invalid_argument);
  dir.increment(0);
  EXPECT_THROW(dir.arm_racks(2), std::invalid_argument);  // not all idle
  // Unarmed directories answer through the base index-order scan.
  EXPECT_EQ(dir.racks(), 0);
  EXPECT_EQ(dir.rack_idle_head(0, 3), 1);
  EXPECT_EQ(dir.rack_idle_head(3, 6), 3);
}

TEST(LevelDirectory, RandomizedRackFifosMatchReferenceModel) {
  // Drive an armed directory with random level moves and check every
  // rack's idle head against per-rack reference deques — the per-rack
  // analogue of the global FIFO stress above.
  const int n = 12, racks = 3, per = n / racks;
  LevelDirectory dir(n);
  dir.arm_racks(racks);
  std::vector<int> ref_level(n, 0);
  std::vector<std::deque<int>> ref(racks);
  for (int s = 0; s < n; ++s) ref[s / per].push_back(s);

  Rng rng(515);
  for (int step = 0; step < 20'000; ++step) {
    const int s = static_cast<int>(rng.uniform_int(n));
    if (ref_level[s] == 0 || rng.uniform_int(3) > 0) {
      dir.increment(s);
      if (ref_level[s] == 0) {
        auto& q = ref[s / per];
        q.erase(std::find(q.begin(), q.end(), s));
      }
      ++ref_level[s];
    } else {
      dir.decrement(s);
      --ref_level[s];
      if (ref_level[s] == 0) ref[s / per].push_back(s);
    }
    for (int r = 0; r < racks; ++r)
      ASSERT_EQ(dir.rack_idle_head(r * per, (r + 1) * per),
                ref[r].empty() ? -1 : ref[r].front())
          << "rack " << r << " step " << step;
  }
}

// ---------------------------------------------------------------------------
// Engine vs oracle: the engine must reproduce the per-server reference
// engine (legacy_cluster_oracle.h) bit for bit, replica by replica.

using rlb::sim::oracle::LegacyClusterOracle;

void expect_same(const MomentsState& a, const MomentsState& b,
                 const std::string& label) {
  EXPECT_EQ(a.count, b.count) << label;
  EXPECT_EQ(a.mean, b.mean) << label;
  EXPECT_EQ(a.m2, b.m2) << label;
  EXPECT_EQ(a.min, b.min) << label;
  EXPECT_EQ(a.max, b.max) << label;
}

/// Every statistic of two replica accumulators, exactly (EXPECT_EQ on
/// doubles is bitwise equality up to the sign of zero).
void expect_same_accum(const ClusterAccum& a, const ClusterAccum& b,
                       const std::string& label) {
  expect_same(a.sojourn_stats.state(), b.sojourn_stats.state(),
              label + " sojourn");
  expect_same(a.wait_stats.state(), b.wait_stats.state(), label + " wait");
  const BatchMeansState ca = a.sojourn_ci.state();
  const BatchMeansState cb = b.sojourn_ci.state();
  EXPECT_EQ(ca.batch_size, cb.batch_size) << label;
  EXPECT_EQ(ca.in_batch, cb.in_batch) << label;
  EXPECT_EQ(ca.batch_sum, cb.batch_sum) << label;
  expect_same(ca.batch_means, cb.batch_means, label + " batch means");
  const ReservoirState qa = a.sojourn_quantiles.state();
  const ReservoirState qb = b.sojourn_quantiles.state();
  EXPECT_EQ(qa.seen, qb.seen) << label;
  EXPECT_EQ(qa.rng_state, qb.rng_state) << label;
  EXPECT_EQ(qa.sample, qb.sample) << label;
  EXPECT_EQ(a.area_jobs, b.area_jobs) << label;
  EXPECT_EQ(a.busy_area, b.busy_area) << label;
  EXPECT_EQ(a.window, b.window) << label;
  EXPECT_EQ(a.sim_time, b.sim_time) << label;
  EXPECT_EQ(a.sla_violations, b.sla_violations) << label;
  ASSERT_EQ(a.windowed_sojourn.has_value(), b.windowed_sojourn.has_value())
      << label;
  if (!a.windowed_sojourn) return;
  ASSERT_EQ(a.windowed_sojourn->windows(), b.windowed_sojourn->windows())
      << label;
  for (std::size_t w = 0; w < a.windowed_sojourn->windows(); ++w) {
    expect_same(a.windowed_sojourn->window(w).state(),
                b.windowed_sojourn->window(w).state(),
                label + " window " + std::to_string(w));
    if (a.windowed_p99->count(w) > 0) {
      EXPECT_EQ(a.windowed_p99->quantile(w, 0.99),
                b.windowed_p99->quantile(w, 0.99))
          << label << " window " << w;
    }
  }
}

/// One replica through the engine and through the oracle, each on fresh
/// reset clones (as simulate_cluster runs a replica); checks the two
/// accumulators match and returns the oracle's.
ClusterAccum run_replica_pair(const ClusterConfig& cfg, const Policy& policy,
                              const ArrivalProcess& arrivals,
                              const Distribution& service,
                              std::uint64_t jobs, std::uint64_t warmup,
                              std::uint64_t batch, std::uint64_t seed,
                              const std::string& label) {
  const auto engine_policy = policy.clone();
  const auto engine_arrivals = arrivals.clone();
  engine_policy->reset();
  engine_arrivals->reset();
  CompactClusterEngine engine(cfg, jobs, warmup, batch, seed, *engine_policy,
                              *engine_arrivals, service);
  const ClusterAccum got = engine.run();

  const auto oracle_policy = policy.clone();
  const auto oracle_arrivals = arrivals.clone();
  oracle_policy->reset();
  oracle_arrivals->reset();
  LegacyClusterOracle oracle(cfg, jobs, warmup, batch, seed, *oracle_policy,
                             *oracle_arrivals, service);
  ClusterAccum want = oracle.run();
  expect_same_accum(got, want, label);
  return want;
}

/// The public result must be what the merged oracle replicas describe.
void expect_result_from(const ClusterResult& r, const ClusterAccum& acc,
                        int servers, const std::string& label) {
  EXPECT_EQ(r.mean_sojourn, acc.sojourn_stats.mean()) << label;
  EXPECT_EQ(r.mean_wait, acc.wait_stats.mean()) << label;
  EXPECT_EQ(r.ci95_sojourn, acc.sojourn_ci.half_width(0.95)) << label;
  EXPECT_EQ(r.p99_sojourn, acc.sojourn_quantiles.quantile(0.99)) << label;
  EXPECT_EQ(r.jobs_measured, acc.sojourn_stats.count()) << label;
  EXPECT_EQ(r.mean_jobs_in_system, acc.area_jobs / acc.window) << label;
  EXPECT_EQ(r.utilization, acc.busy_area / acc.window / servers) << label;
  EXPECT_EQ(r.sim_time, acc.sim_time) << label;
}

/// Every replica of `cfg` through engine and oracle, with the replica
/// seeds, job counts and batch size simulate_cluster derives; then
/// simulate_cluster itself (on `threads` workers) must report the merged
/// oracle statistics.
void expect_matches_oracle(const ClusterConfig& cfg, Policy& policy,
                           const Distribution& interarrival,
                           const Distribution& service,
                           const std::string& label, int threads = 1) {
  RenewalArrivals arrivals(interarrival);
  const ReplicaPlan plan =
      ReplicaPlan::split(cfg.replicas, cfg.jobs, cfg.warmup, cfg.seed);
  const std::uint64_t batch = plan.batch_size(cfg.batch_size);
  std::optional<ClusterAccum> merged;
  for (int r = 0; r < plan.replicas; ++r) {
    ClusterAccum acc = run_replica_pair(
        cfg, policy, arrivals, service, plan.jobs_per_replica, plan.warmup,
        batch, replica_seed(plan.base_seed, r),
        label + " replica " + std::to_string(r));
    if (merged)
      merged->merge(acc);
    else
      merged = std::move(acc);
  }
  rlb::util::ThreadBudget budget(threads);
  const ClusterResult result =
      simulate_cluster(cfg, policy, interarrival, service, budget);
  expect_result_from(result, *merged, cfg.servers, label);
}

ClusterConfig base_config(int n, std::uint64_t jobs = 60'000,
                          int replicas = 1) {
  ClusterConfig cfg;
  cfg.servers = n;
  cfg.jobs = jobs;
  cfg.warmup = jobs / 10;
  cfg.seed = 4242;
  cfg.replicas = replicas;
  return cfg;
}

/// simulate_cluster on a Poisson(rho * n) / Exp(1) workload.
ClusterResult run_cluster(const ClusterConfig& cfg, Policy& policy,
                          double rho = 0.9, int threads = 1) {
  const auto arr = make_exponential(rho * cfg.servers);
  const auto svc = make_exponential(1.0);
  rlb::util::ThreadBudget budget(threads);
  return simulate_cluster(cfg, policy, *arr, *svc, budget);
}

void expect_oracle_on_poisson(const ClusterConfig& cfg, Policy& policy,
                              double rho, const std::string& label,
                              int threads = 1) {
  const auto arr = make_exponential(rho * cfg.servers);
  const auto svc = make_exponential(1.0);
  expect_matches_oracle(cfg, policy, *arr, *svc, label, threads);
}

void expect_identical(const ClusterResult& a, const ClusterResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.mean_sojourn, b.mean_sojourn) << label;
  EXPECT_EQ(a.mean_wait, b.mean_wait) << label;
  EXPECT_EQ(a.ci95_sojourn, b.ci95_sojourn) << label;
  EXPECT_EQ(a.mean_jobs_in_system, b.mean_jobs_in_system) << label;
  EXPECT_EQ(a.utilization, b.utilization) << label;
  EXPECT_EQ(a.p50_sojourn, b.p50_sojourn) << label;
  EXPECT_EQ(a.p95_sojourn, b.p95_sojourn) << label;
  EXPECT_EQ(a.p99_sojourn, b.p99_sojourn) << label;
  EXPECT_EQ(a.jobs_measured, b.jobs_measured) << label;
  EXPECT_EQ(a.sim_time, b.sim_time) << label;
}

std::vector<std::unique_ptr<Policy>> symmetric_policies(int n) {
  std::vector<std::unique_ptr<Policy>> out;
  out.push_back(std::make_unique<SqdPolicy>(n, 1));
  out.push_back(std::make_unique<SqdPolicy>(n, 2));
  out.push_back(std::make_unique<JsqPolicy>());
  out.push_back(std::make_unique<JiqPolicy>(n));
  out.push_back(std::make_unique<JbtPolicy>(n, 2, 3));
  out.push_back(
      std::make_unique<JbtPolicy>(n, 2, 3, JbtPolicy::Fallback::Random));
  return out;
}

/// The symmetric policies plus the identity-aware ones, which run on the
/// engine's ClusterState view.
std::vector<std::unique_ptr<Policy>> all_policies(int n) {
  auto out = symmetric_policies(n);
  out.push_back(std::make_unique<RoundRobinPolicy>());
  out.push_back(std::make_unique<LeastWorkLeftPolicy>());
  return out;
}

/// Hides a policy's directory dispatch: symmetric() is false, so the
/// engine hands it the ClusterState view, the path any custom
/// identity-aware policy takes. Lets the oracle pin that view for every
/// built-in policy, jsq-h included (whose select_direct draws a
/// different sample path by design).
class ClusterStateOnly final : public Policy {
 public:
  explicit ClusterStateOnly(std::unique_ptr<Policy> inner)
      : inner_(std::move(inner)) {}
  int select(const ClusterState& cluster, Rng& rng) override {
    return inner_->select(cluster, rng);
  }
  int select(const ClusterState& cluster, int home_rack, Rng& rng) override {
    return inner_->select(cluster, home_rack, rng);
  }
  [[nodiscard]] std::string name() const override {
    return inner_->name() + " via ClusterState";
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::unique_ptr<Policy> clone() const override {
    return std::make_unique<ClusterStateOnly>(inner_->clone());
  }
  [[nodiscard]] bool locality_aware() const override {
    return inner_->locality_aware();
  }
  [[nodiscard]] int required_racks() const override {
    return inner_->required_racks();
  }

 private:
  std::unique_ptr<Policy> inner_;
};

TEST(CompactCluster, BitIdenticalToLegacyForSymmetricPolicies) {
  const int n = 8;
  for (const auto& policy : all_policies(n))
    expect_oracle_on_poisson(base_config(n), *policy, 0.9, policy->name());
}

TEST(CompactCluster, BitIdenticalToLegacyAtLargerFleet) {
  // Re-pin the equivalence at fleets large enough that the packed
  // directory's blocks span many cache lines and the calendar resizes
  // through several doublings — sizes where a layout bug that preserves
  // small-n behavior would surface. n = 256 is the size fleet_scaling's
  // engine cross-check table used to run.
  for (const int n : {96, 256})
    for (const auto& policy : all_policies(n))
      expect_oracle_on_poisson(base_config(n, 120'000), *policy, 0.9,
                               policy->name() + " n=" + std::to_string(n));
}

TEST(CompactCluster, BitIdenticalAcrossReplicasAndThreads) {
  const int n = 6;
  for (const auto& policy : all_policies(n))
    expect_oracle_on_poisson(base_config(n, 60'000, 3), *policy, 0.9,
                             policy->name() + " r=3", 4);
}

TEST(CompactCluster, BitIdenticalWithHeterogeneousSpeeds) {
  // Speeds shape service times identically on both engines, and they
  // are what makes least-work differ from JSQ.
  const int n = 4;
  ClusterConfig cfg = base_config(n, 50'000);
  cfg.warmup = 5'000;
  cfg.seed = 777;
  cfg.server_speeds = {2.0, 1.0, 1.0, 0.5};
  for (const auto& policy : all_policies(n))
    expect_oracle_on_poisson(cfg, *policy, 0.8, policy->name() + " hetero");
}

TEST(CompactCluster, BitIdenticalWithWindowsAndSla) {
  // The optional recorders see the same departures in the same order.
  const int n = 5;
  ClusterConfig cfg = base_config(n, 40'000, 2);
  cfg.window_width = 500.0;
  cfg.sla_threshold = 2.0;
  for (const auto& policy : all_policies(n))
    expect_oracle_on_poisson(cfg, *policy, 0.85,
                             policy->name() + " windows+sla");
}

TEST(CompactCluster, ClusterStateViewMatchesTheOracleForEveryPolicy) {
  // The engine's per-server view (queue_length, remaining_work, the idle
  // FIFO and its rack slices) against the oracle's, driven by every
  // built-in policy's select — blind and racked.
  const int n = 8;
  auto blind = symmetric_policies(n);
  blind.push_back(std::make_unique<HistogramJsqPolicy>());
  for (auto& inner : blind) {
    ClusterStateOnly policy(std::move(inner));
    expect_oracle_on_poisson(base_config(n, 40'000, 2), policy, 0.9,
                             policy.name());
  }
  ClusterConfig racked = base_config(n, 40'000, 2);
  racked.topology.racks = 2;
  racked.topology.cross_latency = 0.5;
  std::vector<std::unique_ptr<Policy>> rack;
  rack.push_back(std::make_unique<RackLocalSqdPolicy>(n, 2, 2));
  rack.push_back(std::make_unique<RackJiqPolicy>(n, 2));
  rack.push_back(std::make_unique<SqdPolicy>(n, 2));
  for (auto& inner : rack) {
    ClusterStateOnly policy(std::move(inner));
    expect_oracle_on_poisson(racked, policy, 0.9, policy.name() + " racked");
  }
}

TEST(CompactCluster, LeastWorkAndRoundRobinSweepMatchesOracle) {
  // The identity-aware policies over the full grid: fleet size x load x
  // homogeneous/heterogeneous speeds x 1 or 3 replicas (144 configs).
  for (const int n : {1, 2, 10, 20, 50, 100}) {
    for (const double rho : {0.5, 0.9, 0.99}) {
      for (const bool hetero : {false, true}) {
        for (const int replicas : {1, 3}) {
          ClusterConfig cfg = base_config(n, 15'000, replicas);
          cfg.seed = 9'000 + static_cast<std::uint64_t>(n);
          double capacity = n;
          if (hetero) {
            cfg.server_speeds.clear();
            capacity = 0.0;
            for (int s = 0; s < n; ++s) {
              cfg.server_speeds.push_back(0.5 + 0.5 * (s % 3));
              capacity += cfg.server_speeds.back();
            }
          }
          const auto arr = make_exponential(rho * capacity);
          const auto svc = make_exponential(1.0);
          const std::string label =
              "n=" + std::to_string(n) + " rho=" + std::to_string(rho) +
              (hetero ? " hetero" : "") + " r=" + std::to_string(replicas);
          LeastWorkLeftPolicy lwl;
          expect_matches_oracle(cfg, lwl, *arr, *svc, "least-work " + label);
          RoundRobinPolicy rr;
          expect_matches_oracle(cfg, rr, *arr, *svc, "round-robin " + label);
        }
      }
    }
  }
}

TEST(CompactCluster, EngineSelectorIsInert) {
  // ClusterConfig::engine survives for the benchmark harness only: every
  // value runs the one engine, bit-identically.
  const int n = 6;
  SqdPolicy sqd(n, 2);
  JiqPolicy jiq(n);
  RoundRobinPolicy rr;
  LeastWorkLeftPolicy lwl;
  for (Policy* policy : std::vector<Policy*>{&sqd, &jiq, &rr, &lwl}) {
    ClusterConfig cfg = base_config(n, 30'000, 2);
    const auto auto_r = run_cluster(cfg, *policy);
    cfg.engine = ClusterEngine::kLegacy;
    const auto legacy_r = run_cluster(cfg, *policy);
    cfg.engine = ClusterEngine::kCompact;
    const auto compact_r = run_cluster(cfg, *policy);
    expect_identical(auto_r, legacy_r, policy->name() + " auto==legacy");
    expect_identical(auto_r, compact_r, policy->name() + " auto==compact");
  }
}

TEST(CompactCluster, DrainsToAllIdle) {
  // run() stops only after every arrival departed: the directory ends
  // all idle, and the I-queue holds every server.
  const int n = 7;
  const auto arr = make_exponential(0.95 * n);
  const auto svc = make_exponential(1.0);
  RenewalArrivals arrivals(*arr);
  std::vector<std::unique_ptr<Policy>> policies = all_policies(n);
  for (const auto& policy : policies) {
    const ClusterConfig cfg = base_config(n, 20'000);
    CompactClusterEngine engine(cfg, cfg.jobs, cfg.warmup, 100, cfg.seed,
                                *policy, arrivals, *svc);
    (void)engine.run();
    const LevelDirectory& dir = engine.directory();
    EXPECT_EQ(dir.max_level(), 0) << policy->name();
    EXPECT_EQ(dir.idle_count(), n) << policy->name();
    int walked = 0;
    for (int s = dir.idle_head(); s >= 0; s = dir.idle_next(s)) ++walked;
    EXPECT_EQ(walked, n) << policy->name();
    for (int s = 0; s < n; ++s)
      EXPECT_EQ(engine.remaining_work(s), 0.0) << policy->name();
  }
}

TEST(CompactCluster, BitIdenticalOnTheAdaptivePath) {
  // Replicas of every adaptive round, at the seeds and job counts the
  // round schedule derives, through engine and oracle; then the public
  // adaptive entry point must report the merged oracle statistics.
  const int n = 5;
  const auto arr = make_exponential(0.85 * n);
  const auto svc = make_exponential(1.0);
  AdaptivePlan plan;
  plan.replicas = 2;
  plan.target_ci = 0.05;
  plan.initial_jobs = 20'000;
  plan.max_jobs = 160'000;
  plan.warmup_jobs = 1'000;
  plan.base_seed = 99;
  ClusterConfig cfg;
  cfg.servers = n;
  cfg.seed = 99;
  const std::uint64_t batch = plan.batch_size(cfg.batch_size);
  RenewalArrivals arrivals(*arr);
  JiqPolicy jiq(n);
  LeastWorkLeftPolicy lwl;
  for (Policy* policy : std::vector<Policy*>{&jiq, &lwl}) {
    AdaptiveReport report;
    const ClusterAccum merged = run_replicas_adaptive<ClusterAccum>(
        plan, rlb::util::ThreadBudget::serial(),
        [&](int global, std::uint64_t seed, std::uint64_t jobs,
            std::uint64_t warmup) {
          return run_replica_pair(
              cfg, *policy, arrivals, *svc, jobs, warmup, batch, seed,
              policy->name() + " adaptive replica " + std::to_string(global));
        },
        [](ClusterAccum& into, const ClusterAccum& from) { into.merge(from); },
        [&](const ClusterAccum& m) {
          return m.sojourn_ci.half_width_or_infinity(plan.confidence);
        },
        report);
    EXPECT_GT(report.rounds, 1) << policy->name();
    rlb::util::ThreadBudget budget(4);
    const auto result =
        simulate_cluster_adaptive(cfg, *policy, *arr, *svc, plan, budget);
    expect_result_from(result, merged, n, policy->name() + " adaptive");
    EXPECT_EQ(result.adaptive.jobs_used, report.jobs_used);
    EXPECT_EQ(result.adaptive.rounds, report.rounds);
    EXPECT_EQ(result.adaptive.half_width, report.half_width);
  }
}

TEST(CompactCluster, HistogramJsqMatchesJsqStatistically) {
  // jsq-h draws a uniform minimum-level server in O(1); same distribution
  // as the jsq scan, different stream. Means must agree within CIs.
  const int n = 8;
  JsqPolicy jsq;
  HistogramJsqPolicy jsqh;
  const auto a = run_cluster(base_config(n, 300'000), jsq);
  const auto b = run_cluster(base_config(n, 300'000), jsqh);
  EXPECT_NEAR(a.mean_sojourn, b.mean_sojourn,
              3.0 * (a.ci95_sojourn + b.ci95_sojourn) + 0.01);
  // jsq-h's select (index order) and select_direct (block order) map the
  // same draw to different servers, so engine and oracle agree only in
  // distribution; the bit-exact check runs through ClusterStateOnly.
  const ClusterConfig cfg = base_config(n);
  const auto engine_h = run_cluster(cfg, jsqh);
  const auto ia = make_exponential(0.9 * n);
  const auto svc = make_exponential(1.0);
  RenewalArrivals arrivals(*ia);
  LegacyClusterOracle oracle(cfg, cfg.jobs, cfg.warmup, cfg.jobs / 30,
                             cfg.seed, jsqh, arrivals, *svc);
  const ClusterAccum legacy_h = oracle.run();
  EXPECT_NEAR(engine_h.mean_sojourn, legacy_h.sojourn_stats.mean(),
              3.0 * (engine_h.ci95_sojourn +
                     legacy_h.sojourn_ci.half_width(0.95)) +
                  0.01);
}

// ---------------------------------------------------------------------------
// Rack topology (docs/TOPOLOGY.md)

ClusterConfig racked_config(int n, const Topology& topo,
                            std::uint64_t jobs = 60'000, int replicas = 1) {
  ClusterConfig cfg = base_config(n, jobs, replicas);
  cfg.topology = topo;
  return cfg;
}

std::vector<std::unique_ptr<Policy>> rack_policies(int n, int racks) {
  std::vector<std::unique_ptr<Policy>> out;
  out.push_back(std::make_unique<RackLocalSqdPolicy>(n, racks, 2));
  out.push_back(std::make_unique<RackLocalSqdPolicy>(n, racks, 2, 0));
  out.push_back(std::make_unique<RackLocalSqdPolicy>(n, racks, 3, 2));
  out.push_back(std::make_unique<RackJiqPolicy>(n, racks));
  return out;
}

TEST(RackTopology, ZeroPenaltyBlindPoliciesMatchTopologyBlindBitForBit) {
  // Racks without a penalty are unobservable to a blind policy: no home
  // draw happens and every output bit equals the untopologized run.
  const int n = 8;
  Topology racked;
  racked.racks = 4;  // zero penalty
  for (const auto& policy : all_policies(n)) {
    const auto blind = run_cluster(base_config(n), *policy);
    const auto topo = run_cluster(racked_config(n, racked), *policy);
    expect_identical(blind, topo, policy->name() + " zero-penalty");
    expect_oracle_on_poisson(racked_config(n, racked), *policy, 0.9,
                             policy->name() + " zero-penalty");
  }
}

TEST(RackTopology, SingleRackPenaltyIsUnobservable) {
  // One rack means every dispatch is rack-local; the penalty fields are
  // inert and the run is bit-identical to the default topology.
  const int n = 6;
  Topology one_rack;
  one_rack.cross_latency = 2.0;
  one_rack.cross_capacity = 0.5;
  SqdPolicy sqd(n, 2);
  const auto blind = run_cluster(base_config(n), sqd);
  const auto topo = run_cluster(racked_config(n, one_rack), sqd);
  expect_identical(blind, topo, "sq(2) single-rack");
}

TEST(RackTopology, CompactBitIdenticalToLegacyForRackPolicies) {
  // The oracle contract extends to locality-aware dispatch under a real
  // penalty: same home draws, same selections, same penalized service
  // times, bit for bit.
  const int n = 8, racks = 2;
  Topology topo;
  topo.racks = racks;
  topo.cross_latency = 0.5;
  for (const auto& policy : rack_policies(n, racks))
    expect_oracle_on_poisson(racked_config(n, topo), *policy, 0.9,
                             policy->name());
  // Capacity-factor penalties exercise the other penalize() term.
  Topology slow;
  slow.racks = racks;
  slow.cross_capacity = 0.5;
  for (const auto& policy : rack_policies(n, racks))
    expect_oracle_on_poisson(racked_config(n, slow), *policy, 0.9,
                             policy->name() + " capacity");
}

TEST(RackTopology, BlindPoliciesUnderPenaltyStayEngineIdentical) {
  // A penalized topology with a blind policy still draws home racks (the
  // penalty is observable) — engine and oracle must agree on that
  // stream too, identity-aware policies included.
  const int n = 8;
  Topology topo;
  topo.racks = 4;
  topo.cross_latency = 1.0;
  for (const auto& policy : all_policies(n))
    expect_oracle_on_poisson(racked_config(n, topo), *policy, 0.9,
                             policy->name() + " penalized");
}

TEST(RackTopology, RackJiqStealOrderAuditAcrossEngines) {
  // The per-rack JIQ steal contract: when the home rack has no idle
  // server, the engine must steal the GLOBALLY longest-idle server, as
  // the oracle's I-queue does. Run at loads where steals are common
  // (home racks empty out constantly) and where they are rare, with a
  // penalty so any divergence in WHICH server was stolen changes the
  // service time and is caught bit-for-bit; replicas/threads shuffle
  // nothing.
  const int n = 12, racks = 3;
  Topology topo;
  topo.racks = racks;
  topo.cross_latency = 0.25;
  for (double rho : {0.6, 0.95}) {
    RackJiqPolicy policy(n, racks);
    const std::string label = "rack-jiq steal audit rho=" + std::to_string(rho);
    expect_oracle_on_poisson(racked_config(n, topo, 80'000), policy, rho,
                             label);
    expect_oracle_on_poisson(racked_config(n, topo, 80'000, 4), policy, rho,
                             label + " sharded", 4);
  }
}

TEST(RackTopology, PenaltyActuallyHurtsBlindDispatch) {
  // Sanity on the model itself: a blind sq(2) pays cross-rack latency on
  // most dispatches, so its delay must climb well beyond the zero-penalty
  // run; the no-spill rack-local policy never pays it.
  const int n = 8;
  Topology topo;
  topo.racks = 4;
  topo.cross_latency = 2.0;
  SqdPolicy blind(n, 2);
  const auto base = run_cluster(base_config(n), blind);
  const auto hurt = run_cluster(racked_config(n, topo), blind);
  EXPECT_GT(hurt.mean_sojourn, base.mean_sojourn + 1.0);
  RackLocalSqdPolicy local(n, 4, 2, 0);
  Topology racked_free;
  racked_free.racks = 4;  // zero penalty
  const auto contained = run_cluster(racked_config(n, topo), local, 0.7);
  const auto contained_base =
      run_cluster(racked_config(n, racked_free), local, 0.7);
  // Same policy, same seeds: zero penalty and huge penalty agree exactly
  // because no dispatch ever leaves its rack.
  expect_identical(contained, contained_base, "no-spill contains penalty");
}

TEST(RackTopology, NoSpillZeroPenaltyMatchesTheExactPerRackSolver) {
  // At zero penalty the no-spill policy partitions the cluster into
  // independent per-rack SQ(d) systems, so the paper's exact solver for
  // a 4-server SQ(2) cluster predicts the simulated sojourn (the
  // rack_locality scenario's zero_penalty_check column). rho 0.70 keeps
  // the solver's truncation mass at cap 26 around 1e-4; at higher loads
  // the truncated solve visibly underestimates the true delay.
  const int n = 8, racks = 2, per = 4, d = 2;
  const double rho = 0.70;
  Topology topo;
  topo.racks = racks;  // zero penalty
  RackLocalSqdPolicy local(n, racks, d, 0);
  const auto sim =
      run_cluster(racked_config(n, topo, 2'000'000, 4), local, rho);
  const auto exact = rlb::sqd::solve_exact_truncated(
      rlb::sqd::Params{per, d, rho, 1.0}, 26);
  EXPECT_NEAR(sim.mean_sojourn, exact.mean_delay,
              0.02 * exact.mean_delay);
}

TEST(RackTopology, ValidatesConfiguration) {
  SqdPolicy sqd(6, 2);
  Topology bad;
  bad.racks = 4;  // 6 % 4 != 0
  EXPECT_THROW(run_cluster(racked_config(6, bad), sqd),
               std::invalid_argument);
  Topology negative;
  negative.cross_latency = -1.0;
  EXPECT_THROW(run_cluster(racked_config(6, negative), sqd),
               std::invalid_argument);
  Topology zero_cap;
  zero_cap.cross_capacity = 0.0;
  EXPECT_THROW(run_cluster(racked_config(6, zero_cap), sqd),
               std::invalid_argument);
  // A rack policy built for 2 racks cannot run on 3 (or on the default
  // single-rack topology).
  RackLocalSqdPolicy rsqd(6, 2, 2);
  Topology three;
  three.racks = 3;
  EXPECT_THROW(run_cluster(racked_config(6, three), rsqd),
               std::invalid_argument);
  EXPECT_THROW(run_cluster(base_config(6), rsqd), std::invalid_argument);
  Topology two;
  two.racks = 2;
  EXPECT_NO_THROW(run_cluster(racked_config(6, two), rsqd));
}

}  // namespace
