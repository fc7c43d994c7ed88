// Per-layer probes for the traced run: each times one layer of the
// library in isolation, inside a span.
//
// Every traced run makes the same probes, whatever its workload. The five
// sim layer costs are per simulated job of an SQ(2), rho = 0.9 cell, once
// in the paper's regime (N = 100, paper_small_n's largest cell: metrics
// "sim.*") and once in the memory-bound one (N = 10^6, large_fleet's SQ(2)
// cell: "sim.fleet.*"). The bounds probes solve one fixed model, Fig.
// 10(d)'s (N, T) = (12, 3) at rho = 0.7 (block 364).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// An SQ(2) DES cell the sim probes model.
struct ProbeCell {
  int n = 100;
  double rho = 0.9;
  std::uint64_t jobs = 300'000;
};

inline constexpr ProbeCell kPaperCell{100, 0.9, 300'000};
inline constexpr ProbeCell kFleetCell{1'000'000, 0.9, 3'000'000};

/// Computed (not measured) compact-engine state for `cell`, in MB.
struct WorkingSet {
  double per_server_mb = 0.0;  ///< server slots, directory records, perm
  double event_queue_mb = 0.0; ///< calendar buckets for ~rho N departures
  double pool_mb = 0.0;        ///< queued-job records behind the heads
  [[nodiscard]] double total_mb() const {
    return per_server_mb + event_queue_mb + pool_mb;
  }
};
WorkingSet working_set(const ProbeCell& cell);

/// Median of a non-empty sample (mean of the middle two for even sizes).
double median(std::vector<double> v);

/// Runs every probe under `parent` and returns the per-layer metrics they
/// yield (everything except engine.busy_frac and trace_overhead_frac,
/// which come from the workload's traced passes).
std::vector<Metric> run_layer_probes(Tracer& tracer, Tracer::Id parent);

}  // namespace perfbench
