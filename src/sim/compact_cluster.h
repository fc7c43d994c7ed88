// The cluster engine: one replica's event loop for every dispatch policy.
//
// The state is the queue-length HISTOGRAM — a by-level directory of
// exchangeable server handles (sim/level_directory.h) — plus one
// cache-line slot per server, so every state update a dispatch decision
// needs is O(1), the event calendar is O(1) amortized, and the per-job
// cost stays flat as the fleet grows to N = 10^6 (the fleet_scaling
// scenario measures this).
//
// Symmetric policies see the cluster only through queue-length
// information — counts per level, the idle FIFO head, levels of sampled
// handles — and get the concrete LevelDirectory (Policy::select_direct),
// so the per-event dispatch pays one virtual call instead of one per
// directory query. Identity-aware policies (round-robin, least-work-left)
// get the engine itself as a ClusterState: per-server queue lengths,
// remaining work and the idle FIFO in became-idle order.
//
// tests/legacy_cluster_oracle.h keeps the original per-server engine as
// a test oracle; the engine reproduces it bit for bit under the same
// seed, for every policy, topology, speed vector and replica count
// (tests/test_compact_cluster.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/arrival_process.h"
#include "sim/calendar_queue.h"
#include "sim/cluster_accum.h"
#include "sim/cluster_sim.h"
#include "sim/distributions.h"
#include "sim/level_directory.h"
#include "sim/policy.h"
#include "sim/rng.h"

namespace rlb::sim {

/// One replica's event loop. The RNG draw order is fixed — service
/// sample, then the home-rack draw (racked runs only), then the policy's
/// draws, then the next interarrival — as are the (time, server) event
/// ordering and the statistics accumulation order; the oracle tests pin
/// all three.
///
/// Job storage is laid out for locality, not pooled uniformly: the job a
/// server is CURRENTLY serving lives inline in that server's own
/// cache-line slot (slot_), so the arrival-to-idle-server and departure
/// paths — the only paths most jobs ever take — touch one line of job
/// state and no shared pool. Only jobs queued BEHIND the head go to the
/// free-list pool, chained into the slot's intrusive FIFO. The event loop
/// also stages the next event's memory while finishing the current one
/// (the calendar's top event names the next departure's server; JIQ names
/// the next arrival's), so the random-access misses overlap event
/// processing instead of serializing in front of it.
class CompactClusterEngine final : public ClusterState {
 public:
  CompactClusterEngine(const ClusterConfig& cfg, std::uint64_t jobs,
                       std::uint64_t warmup, std::uint64_t batch,
                       std::uint64_t seed, Policy& policy,
                       ArrivalProcess& arrivals, const Distribution& service);

  /// The directory the policies dispatch against; exposed for tests.
  [[nodiscard]] const LevelDirectory& directory() const { return dir_; }

  ClusterAccum run();

  // ClusterState: the per-server view identity-aware policies select on.
  [[nodiscard]] int servers() const override { return cfg_.servers; }
  [[nodiscard]] int queue_length(int server) const override {
    return dir_.level_of(server);
  }
  [[nodiscard]] double remaining_work(int server) const override;
  [[nodiscard]] int idle_servers() const override {
    return dir_.idle_count();
  }
  [[nodiscard]] int idle_server(int i) const override;
  [[nodiscard]] int rack_idle_head(int begin, int end) const override;

 private:
  /// In-flight job payload.
  struct Job {
    std::uint64_t index = 0;
    double arrival_time = 0.0;
    double service_time = 0.0;
  };

  /// Pooled record for jobs waiting behind a server's head job; `next`
  /// chains the per-server FIFO or the free list.
  struct PoolRec {
    Job job;
    std::int32_t next = -1;
  };

  /// One cache line per server: the head (in-service) job inline — valid
  /// iff the server is busy, i.e. its directory level is > 0 — the FIFO
  /// links into the pool for any jobs queued behind it, and the two
  /// scalars remaining_work reads.
  struct alignas(64) ServerSlot {
    Job head;
    std::int32_t next = -1;  ///< pool slot of the 2nd job, -1 if none
    std::int32_t tail = -1;  ///< pool slot of the last queued job
    /// The head job's departure time.
    double completion = 0.0;
    /// Service time queued behind the head. Never reset between busy
    /// periods (rounding residue carries over), matching the oracle.
    double queued_work = 0.0;
  };
  static_assert(sizeof(ServerSlot) == 64, "one cache line per server");

  std::int32_t acquire_slot();
  void release_slot(std::int32_t slot);
  void push_job(int server, const Job& job);
  Job pop_job(int server);

  // By value: replicas run on worker threads and adaptive runs re-enter
  // with short-lived configs, so the engine must not hold a reference
  // into caller storage.
  ClusterConfig cfg_;
  std::uint64_t jobs_;
  std::uint64_t warmup_;
  std::uint64_t batch_;
  std::uint64_t seed_;
  Policy& policy_;
  ArrivalProcess& arrivals_;
  const Distribution& service_;
  Rng rng_;
  /// Topology observable this run (sim/topology.h gating rule).
  bool rack_mode_;
  int per_rack_;

  LevelDirectory dir_;
  CalendarQueue calendar_;      ///< pending departures, one per busy server
  std::vector<ServerSlot> slot_;  ///< per-server head job + FIFO links
  std::vector<PoolRec> pool_;     ///< jobs queued behind a head
  std::int32_t free_head_ = -1;
  double now_ = 0.0;
};

}  // namespace rlb::sim
