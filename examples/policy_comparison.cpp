// Scenario "policy_comparison" — SQ(d) against the classic low-feedback
// alternatives it competes with: join-idle-queue (JIQ, Lu et al. 2011)
// and join-below-threshold-d (JBT), bracketed by uniform random routing
// and full-information JSQ. One delay table and one p99 tail table, rho
// down the rows and one column per policy, comparable to the fig10 delay
// curves. Each (rho, policy) simulation is one sweep cell; policy columns
// share the rho row's random streams (common random numbers).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/adaptive_columns.h"
#include "engine/scenario.h"
#include "sim/cluster_sim.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;

constexpr std::size_t kPolicies = 5;  // random, sq(d), jbt, jiq, jsq

std::unique_ptr<rlb::sim::Policy> make_policy(std::size_t task, int n, int d,
                                              int jbt_t) {
  using namespace rlb::sim;
  switch (task) {
    case 0:
      return std::make_unique<SqdPolicy>(n, 1);
    case 1:
      return std::make_unique<SqdPolicy>(n, d);
    case 2:
      return std::make_unique<JbtPolicy>(n, d, jbt_t);
    case 3:
      return std::make_unique<JiqPolicy>(n);
    default:
      return std::make_unique<JsqPolicy>();
  }
}

ScenarioOutput run(ScenarioContext& ctx) {
  const int n = static_cast<int>(ctx.cli().get_int("n", 16));
  const int d = static_cast<int>(ctx.cli().get_int("d", 2));
  const int jbt_t = static_cast<int>(ctx.cli().get_int("jbt-t", 3));
  const auto jobs =
      static_cast<std::uint64_t>(ctx.cli().get_int("jobs", 400'000));
  const auto seed =
      static_cast<std::uint64_t>(ctx.cli().get_int("seed", 24680));

  using namespace rlb::sim;
  const std::vector<double> rhos{0.50, 0.70, 0.80, 0.90, 0.95};
  // One cell per (rho, policy). One seed per rho row: policy columns
  // share random streams (common random numbers), isolating the policy
  // effect, so the policy task joins the seed as a coordinate.
  std::vector<rlb::engine::CellSpec> specs;
  for (std::size_t r = 0; r < rhos.size(); ++r)
    for (std::size_t task = 0; task < kPolicies; ++task)
      specs.push_back(rlb::engine::CellSpec()
                          .set("seed", rlb::engine::cell_seed(seed, r))
                          .set("n", n)
                          .set("d", d)
                          .set("jbt-t", jbt_t)
                          .set("jobs", jobs)
                          .set("rho", rhos[r])
                          .set("task", static_cast<std::uint64_t>(task)));

  // Cell values: [0] mean sojourn, [1] p99 sojourn.
  const bool adaptive = ctx.adaptive().enabled();
  const auto cells = ctx.map_cells(
      "policy_comparison", specs,
      [&](const rlb::engine::CellSpec& cell,
          const rlb::engine::CellRecord* refine_from) {
        ClusterConfig cfg;
        cfg.servers = cell.get<int>("n");
        cfg.jobs = cell.get<std::uint64_t>("jobs");
        cfg.warmup = cfg.jobs / 10;
        cfg.seed = cell.get<std::uint64_t>("seed");
        cfg.replicas = ctx.replicas();
        const auto arr =
            make_exponential(cell.get<double>("rho") * cfg.servers);
        RenewalArrivals arrivals(*arr);
        const auto svc = make_exponential(1.0);
        const auto policy = make_policy(
            cell.get<std::uint64_t>("task"), cfg.servers,
            cell.get<int>("d"), cell.get<int>("jbt-t"));
        return rlb::engine::run_cluster_cell(
            ctx, cfg, *policy, arrivals, *svc, refine_from,
            {&ClusterResult::mean_sojourn, &ClusterResult::p99_sojourn});
      });

  ScenarioOutput out;
  out.preamble =
      "Dispatch-policy comparison, N = " + std::to_string(n) +
      " servers, Poisson arrivals, Exp(1) service.\nPolicies: uniform "
      "random, the paper's sq(" +
      std::to_string(d) + "), jbt(" + std::to_string(d) +
      ", t=" + std::to_string(jbt_t) + "), jiq (random fallback), jsq.";
  const std::vector<std::string> header{
      "rho",         "random", "sq(" + std::to_string(d) + ")",
      "jbt",         "jiq",    "jsq"};
  auto& delay = out.add_table("delay", header);
  for (std::size_t r = 0; r < rhos.size(); ++r) {
    std::vector<std::string> row{rlb::util::fmt(rhos[r], 2)};
    for (std::size_t t = 0; t < kPolicies; ++t)
      row.push_back(rlb::util::fmt(cells[r * kPolicies + t].values[0], 4));
    delay.add_row(std::move(row));
  }
  out.note("Mean sojourn time (delay) per policy.");
  auto& tail = out.add_table("tail_p99", header);
  for (std::size_t r = 0; r < rhos.size(); ++r) {
    std::vector<std::string> row{rlb::util::fmt(rhos[r], 2)};
    for (std::size_t t = 0; t < kPolicies; ++t)
      row.push_back(rlb::util::fmt(cells[r * kPolicies + t].values[1], 4));
    tail.add_row(std::move(row));
  }
  out.note("99th percentile sojourn time per policy.");
  if (adaptive) {
    // The stopping report per (rho, policy) cell: the target statistic
    // is the mean sojourn time; p99 rides along on whatever budget the
    // mean needed.
    std::vector<std::string> adaptive_header{"rho"};
    rlb::engine::add_adaptive_columns(adaptive_header);
    auto& report = out.add_table("adaptive", adaptive_header);
    for (std::size_t r = 0; r < rhos.size(); ++r) {
      auto combined = rlb::sim::AdaptiveReport::row_identity();
      for (std::size_t t = 0; t < kPolicies; ++t)
        combined.combine(cells[r * kPolicies + t].report);
      std::vector<std::string> row{rlb::util::fmt(rhos[r], 2)};
      rlb::engine::add_adaptive_cells(row, combined);
      report.add_row(std::move(row));
    }
    out.note(rlb::engine::adaptive_note("the five policies"));
  }
  out.postamble =
      "Reading: JIQ tracks JSQ while idle servers exist and falls back to "
      "random beyond\nrho ~ 0.9; JBT needs one bit per poll and sits "
      "between sq(d) and random;\nsq(d) degrades the most gracefully at "
      "high load.";
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "policy_comparison",
    "SQ(d) vs JIQ, JBT(d), random and JSQ: delay and p99 tail across the "
    "load range",
    {{"n", "number of servers", "16"},
     {"d", "polled servers for sq(d)/jbt and the jbt fallback", "2"},
     {"jbt-t", "JBT queue-length threshold", "3"},
     {"jobs", "simulated jobs per cell", "400000"},
     {"seed", "base RNG seed; per-row seeds are derived from it", "24680"}},
    run}};

}  // namespace
