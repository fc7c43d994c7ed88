#include "workloads.h"

#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "engine/sweep.h"
#include "qbd/solver.h"
#include "sim/distributions.h"
#include "sim/policy.h"
#include "sqd/bound_solver.h"
#include "sqd/exact_reference.h"
#include "sqd/mm_queues.h"

namespace perfbench {

namespace {

using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;

// paper_small_n: the paper's N = 10..100 regime. 300k arrivals per cell
// keep the batch-means CI a few percent of the delay at rho = 0.95.
constexpr int kSmallNs[] = {10, 20, 50, 100};
constexpr double kSmallRhos[] = {0.5, 0.7, 0.9, 0.95};
constexpr std::uint64_t kSmallJobs = 300'000;

// large_fleet: N = 10^6 with a few arrivals per server, so one cell fits a
// run while its per-server state (~84 MB) exceeds the last-level cache.
constexpr int kFleetN = 1'000'000;
constexpr std::uint64_t kFleetJobsPerServer = 3;

// The exact truncated solve's cap at N = 3 (as in the exact-sandwich test).
constexpr int kExactCap = 36;

// Statistical checks allow this many batch-means CI half-widths.
constexpr double kCiMultiple = 4.0;

// The reference bounds for a DES cell use the largest threshold whose
// block (C(N+T-1, T) states) keeps the dense solves around 10 ms.
int reference_threshold(int n) { return n <= 10 ? 3 : (n <= 20 ? 2 : 1); }

std::unique_ptr<rlb::sim::Policy> make_policy(PolicyKind kind, int n) {
  switch (kind) {
    case PolicyKind::kSqd2:
      return std::make_unique<rlb::sim::SqdPolicy>(n, 2);
    case PolicyKind::kJiq:
      return std::make_unique<rlb::sim::JiqPolicy>(n, 1);
    case PolicyKind::kLeastWork:
      return std::make_unique<rlb::sim::LeastWorkLeftPolicy>();
  }
  throw std::logic_error("unknown policy kind");
}

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kSqd2: return "sq2";
    case PolicyKind::kJiq: return "jiq";
    case PolicyKind::kLeastWork: return "least-work";
  }
  return "?";
}

using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// CPU time of the calling thread. Unlike wall time it leaves out the time
// the thread waited for a core (and, on a VM with steal-time accounting,
// the time its vCPU was descheduled). A cell runs wholly on one thread: a
// DES cell has one replica, and the bound solvers are serial.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

CellOutput run_des(const DesCell& c, rlb::util::ThreadBudget& budget,
                   Tracer* tracer, Tracer::Id parent) {
  rlb::sim::ClusterConfig cfg;
  cfg.servers = c.n;
  cfg.jobs = c.jobs;
  cfg.warmup = c.warmup;
  cfg.seed = c.seed;
  const auto policy = make_policy(c.policy, c.n);
  const auto interarrival = rlb::sim::make_exponential(c.rho * c.n);
  const auto service = rlb::sim::make_exponential(1.0);

  CellOutput out;
  Scope span(tracer, "sim.simulate_cluster", parent);
  span.set_count(static_cast<double>(c.jobs));
  const double start = thread_cpu_s();
  out.des = rlb::sim::simulate_cluster(cfg, *policy, *interarrival, *service,
                                       budget);
  out.host_s = thread_cpu_s() - start;
  return out;
}

CellOutput run_bounds(const BoundsCell& c, Tracer* tracer, Tracer::Id parent) {
  const Params p{c.n, 2, c.rho, 1.0};
  CellOutput out;
  BoundsOutput& b = out.bounds;
  const double start = thread_cpu_s();
  {
    Scope span(tracer, "sqd.solve_lower_improved", parent);
    b.lower = rlb::sqd::solve_lower_improved(BoundModel(p, c.t, BoundKind::Lower))
                  .mean_delay;
  }
  {
    Scope span(tracer, "sqd.solve_bound", parent);
    try {
      const auto upper =
          rlb::sqd::solve_bound(BoundModel(p, c.t, BoundKind::Upper));
      b.upper = upper.mean_delay;
      b.upper_stable = true;
      b.logred_iterations = upper.logred_iterations;
    } catch (const rlb::qbd::UnstableError&) {
      b.upper_stable = false;  // the drift condition fails: expected
    }
  }
  if (c.exact) {
    Scope span(tracer, "sqd.solve_exact_truncated", parent);
    const auto exact = rlb::sqd::solve_exact_truncated(p, kExactCap);
    b.exact = exact.mean_delay;
    b.exact_mass = exact.truncation_mass;
  }
  out.host_s = thread_cpu_s() - start;
  return out;
}

bool finite_positive(double x) { return std::isfinite(x) && x > 0.0; }

std::string fmt(const char* format, double a, double b, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

std::vector<std::string> check_des(const DesCell& c, const DesReference& ref,
                                   const rlb::sim::ClusterResult& r) {
  std::vector<std::string> bad;
  if (!finite_positive(r.mean_sojourn) || !finite_positive(r.utilization) ||
      !finite_positive(r.mean_jobs_in_system) || !(r.ci95_sojourn >= 0.0)) {
    bad.push_back("non-finite or non-positive output");
    return bad;
  }
  // Flow balance: the engines drain, so every measured arrival departs.
  if (r.jobs_measured != c.jobs - c.warmup)
    bad.push_back(fmt("flow balance: measured %.0f of %.0f arrivals",
                      static_cast<double>(r.jobs_measured),
                      static_cast<double>(c.jobs - c.warmup)));

  // The measured window runs from the warmup-th arrival (at about
  // warmup / (rho N)) to the last departure; over it the engine saw
  // jobs_measured arrivals, each bringing Exp(1) work.
  const double window =
      r.sim_time - static_cast<double>(c.warmup) / (c.rho * c.n);
  const double lambda_eff = static_cast<double>(r.jobs_measured) / window;
  const double u_expected = lambda_eff / c.n;
  // With no warmup (large_fleet) the window holds every job from arrival
  // to departure: Little's law is then exact and the work balance is off
  // only by the sampling error of the mean service time.
  const bool large = c.n > 1000;
  const double tol = c.warmup == 0 ? 0.005 : 0.02;
  if (std::abs(r.utilization - u_expected) > tol * u_expected)
    bad.push_back(fmt("utilization %.4f vs offered load %.4f",
                      r.utilization, u_expected));
  if (!large && std::abs(r.utilization - c.rho) > 0.02)
    bad.push_back(fmt("utilization %.4f vs rho %.4f", r.utilization, c.rho));
  // Little's law: time-average jobs in system = throughput x sojourn.
  const double little = lambda_eff * r.mean_sojourn;
  if (std::abs(r.mean_jobs_in_system - little) > tol * little)
    bad.push_back(fmt("Little's law: L = %.4f vs lambda T = %.4f",
                      r.mean_jobs_in_system, little));

  const double slack = kCiMultiple * r.ci95_sojourn;
  if (ref.lower > 0.0 && ref.lower > r.mean_sojourn + slack)
    bad.push_back(fmt("Thm 3 lower bound %.4f above simulated %.4f",
                      ref.lower, r.mean_sojourn));
  if (ref.upper > 0.0 && ref.upper < r.mean_sojourn - slack)
    bad.push_back(fmt("Thm 1 upper bound %.4f below simulated %.4f",
                      ref.upper, r.mean_sojourn));
  if (ref.mmn > 0.0) {
    if (ref.mmn > r.mean_sojourn + slack)
      bad.push_back(fmt("M/M/N delay %.4f above simulated %.4f", ref.mmn,
                        r.mean_sojourn));
    // Least-work-left with FIFO servers is the M/M/N queue.
    if (c.policy == PolicyKind::kLeastWork &&
        std::abs(ref.mmn - r.mean_sojourn) > slack + 0.01 * ref.mmn)
      bad.push_back(fmt("least-work delay %.4f vs M/M/N %.4f",
                        r.mean_sojourn, ref.mmn));
  }
  if (ref.mm1 > 0.0 && r.mean_sojourn > ref.mm1 + slack)
    bad.push_back(fmt("simulated %.4f above random routing %.4f",
                      r.mean_sojourn, ref.mm1));
  if (ref.transient > 0.0 &&
      std::abs(r.mean_sojourn - ref.transient) > 0.01 * ref.transient)
    bad.push_back(fmt("transient delay %.4f vs mean-field %.4f",
                      r.mean_sojourn, ref.transient));
  return bad;
}

std::vector<std::string> check_bounds(const BoundsCell& c,
                                      const BoundsReference& ref,
                                      const BoundsOutput& b) {
  std::vector<std::string> bad;
  constexpr double kRel = 1e-9;
  if (!std::isfinite(b.lower) || b.lower < 1.0) {
    bad.push_back(fmt("lower bound %.6f below the service time", b.lower, 0));
    return bad;
  }
  if (b.upper_stable &&
      (!std::isfinite(b.upper) || b.lower > b.upper * (1.0 + kRel)))
    bad.push_back(fmt("lower %.6f above upper %.6f", b.lower, b.upper));
  if (c.exact) {
    // Truncation only removes mass from the tail, so the truncated mean
    // sits below the true one; the slack the exact-sandwich test allows
    // covers that deflation when comparing against the lower bound.
    const double slack =
        std::max(1e-6, 20.0 * b.exact_mass * kExactCap);
    if (!std::isfinite(b.exact) || b.lower > b.exact + slack)
      bad.push_back(fmt("lower %.6f above exact %.6f", b.lower, b.exact));
    if (b.upper_stable && b.exact > b.upper * (1.0 + kRel))
      bad.push_back(fmt("exact %.6f above upper %.6f", b.exact, b.upper));
  }
  if (ref.generic_lower > 0.0 &&
      std::abs(b.lower - ref.generic_lower) > 1e-8 * ref.generic_lower)
    bad.push_back(fmt("Thm 3 lower %.12f != Thm 1 lower %.12f", b.lower,
                      ref.generic_lower));
  return bad;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_small_n", "large_fleet",
                                              "paper_bounds"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "paper_small_n") {
    for (const int n : kSmallNs) {
      for (const double rho : kSmallRhos)
        w.des.push_back({n, rho, PolicyKind::kSqd2, kSmallJobs, 0, 0});
      w.des.push_back({n, 0.9, PolicyKind::kJiq, kSmallJobs, 0, 0});
      w.des.push_back({n, 0.9, PolicyKind::kLeastWork, kSmallJobs, 0, 0});
    }
  } else if (name == "large_fleet") {
    const std::uint64_t jobs = kFleetJobsPerServer * kFleetN;
    w.des.push_back({kFleetN, 0.9, PolicyKind::kSqd2, jobs, 0, 0});
    w.des.push_back({kFleetN, 0.9, PolicyKind::kJiq, jobs, 0, 0});
  } else if (name == "paper_bounds") {
    // Fig. 10's panels and utilization grid, as the
    // fig10_delay_vs_utilization scenario builds them.
    const int panels[][2] = {{3, 2}, {3, 3}, {6, 3}, {12, 3}};
    for (const auto& panel : panels)
      for (double r = 0.05; r < 0.96; r += 0.05)
        w.bounds.push_back({panel[0], panel[1], r, panel[0] == 3});
    return w;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  for (std::size_t i = 0; i < w.des.size(); ++i) {
    // Scenarios discard the first tenth of the arrivals. large_fleet
    // measures its transient from the empty start instead: the system is
    // then empty at both ends of the measured window, so Little's law and
    // the work balance hold exactly rather than up to the leftover
    // warmup jobs, which weigh ~10% at a few jobs per server.
    w.des[i].warmup = w.des[i].n > 1000 ? 0 : w.des[i].jobs / 10;
    w.des[i].seed = rlb::engine::cell_seed(seed, i);
  }
  return w;
}

Workload shrink(const Workload& w, std::uint64_t divisor) {
  Workload s = w;
  for (DesCell& c : s.des) {
    c.jobs /= divisor;
    c.warmup /= divisor;
  }
  s.bounds.clear();
  for (const BoundsCell& c : w.bounds)
    if (c.n == 3 && c.t == 2) s.bounds.push_back(c);
  return s;
}

Rep run_rep(const Workload& w, rlb::util::ThreadBudget& budget,
            Tracer* tracer, Tracer::Id parent) {
  Rep rep;
  const auto start = Clock::now();
  rep.cells = rlb::engine::parallel_map<CellOutput>(
      w.cells(), budget, [&](std::size_t i) {
        Scope span(tracer, "cell", parent);
        return w.des.empty() ? run_bounds(w.bounds[i], tracer, span.id())
                             : run_des(w.des[i], budget, tracer, span.id());
      });
  rep.wall_s = seconds_since(start);
  return rep;
}

double work_units(const Workload& w) {
  double units = 0.0;
  for (const DesCell& c : w.des) units += static_cast<double>(c.jobs);
  for (const BoundsCell& c : w.bounds) units += c.exact ? 3.0 : 2.0;
  return units;
}

References compute_references(const Workload& w,
                              rlb::util::ThreadBudget& budget) {
  References refs;
  refs.des = rlb::engine::parallel_map<DesReference>(
      w.des.size(), budget, [&](std::size_t i) {
        const DesCell& c = w.des[i];
        DesReference ref;
        if (c.n > 1000) {
          if (c.policy == PolicyKind::kSqd2) {
            const double per_server = 1.0 / c.n;
            ref.transient = mean_field_transient_delay(
                c.rho, 2, static_cast<double>(c.warmup) * per_server,
                static_cast<double>(c.jobs) * per_server);
          } else {
            ref.transient = 1.0;  // JIQ: an idle server is always found
          }
          return ref;
        }
        ref.mmn = rlb::sqd::Mmc{c.rho * c.n, 1.0, c.n}.mean_sojourn();
        ref.mm1 = rlb::sqd::Mm1{c.rho, 1.0}.mean_sojourn();
        if (c.policy == PolicyKind::kSqd2) {
          const Params p{c.n, 2, c.rho, 1.0};
          const int t = reference_threshold(c.n);
          ref.lower = rlb::sqd::solve_lower_improved(
                          BoundModel(p, t, BoundKind::Lower))
                          .mean_delay;
          try {
            ref.upper =
                rlb::sqd::solve_bound(BoundModel(p, t, BoundKind::Upper))
                    .mean_delay;
          } catch (const rlb::qbd::UnstableError&) {
          }
        }
        return ref;
      });
  refs.bounds = rlb::engine::parallel_map<BoundsReference>(
      w.bounds.size(), budget, [&](std::size_t i) {
        const BoundsCell& c = w.bounds[i];
        BoundsReference ref;
        if (c.n <= 6)
          ref.generic_lower =
              rlb::sqd::solve_bound(
                  BoundModel(Params{c.n, 2, c.rho, 1.0}, c.t, BoundKind::Lower))
                  .mean_delay;
        return ref;
      });
  return refs;
}

std::vector<std::string> check_cell(const Workload& w, const References& refs,
                                    std::size_t i, const CellOutput& out) {
  return w.des.empty() ? check_bounds(w.bounds[i], refs.bounds[i], out.bounds)
                       : check_des(w.des[i], refs.des[i], out.des);
}

bool same_output(const CellOutput& a, const CellOutput& b) {
  const auto& x = a.des;
  const auto& y = b.des;
  return x.mean_sojourn == y.mean_sojourn && x.mean_wait == y.mean_wait &&
         x.ci95_sojourn == y.ci95_sojourn &&
         x.mean_jobs_in_system == y.mean_jobs_in_system &&
         x.utilization == y.utilization && x.p50_sojourn == y.p50_sojourn &&
         x.p95_sojourn == y.p95_sojourn && x.p99_sojourn == y.p99_sojourn &&
         x.jobs_measured == y.jobs_measured && x.sim_time == y.sim_time &&
         a.bounds.lower == b.bounds.lower && a.bounds.upper == b.bounds.upper &&
         a.bounds.upper_stable == b.bounds.upper_stable &&
         a.bounds.logred_iterations == b.bounds.logred_iterations &&
         a.bounds.exact == b.bounds.exact &&
         a.bounds.exact_mass == b.bounds.exact_mass;
}

double mean_field_transient_delay(double rho, int d, double warmup_per_server,
                                  double jobs_per_server) {
  // s[k] = fraction of servers holding >= k jobs, s[0] = 1;
  // ds_k/dt = rho (s_{k-1}^d - s_k^d) - (s_k - s_{k+1}). An arrival at t
  // joins a queue of length k w.p. s_k^d - s_{k+1}^d and stays k + 1 mean
  // service times, so its expected sojourn is sum_{k>=0} s_k^d.
  constexpr int kLevels = 48;
  constexpr double kDt = 1e-3;
  const auto deriv = [&](const std::vector<double>& s,
                         std::vector<double>& ds) {
    for (int k = 1; k < kLevels; ++k) {
      const double next = k + 1 < kLevels ? s[k + 1] : 0.0;
      ds[k] = rho * (std::pow(s[k - 1], d) - std::pow(s[k], d)) -
              (s[k] - next);
    }
  };
  const auto sojourn = [&](const std::vector<double>& s) {
    double sum = 0.0;
    for (int k = 0; k < kLevels; ++k) sum += std::pow(s[k], d);
    return sum;
  };
  std::vector<double> s(kLevels, 0.0), k1(kLevels, 0.0), k2(kLevels, 0.0),
      k3(kLevels, 0.0), k4(kLevels, 0.0), tmp(kLevels, 0.0);
  s[0] = 1.0;
  tmp[0] = 1.0;
  // Arrivals reach per-server index x at time x / rho.
  const double t1 = warmup_per_server / rho;
  const double t2 = jobs_per_server / rho;
  const int steps = static_cast<int>(std::ceil(t2 / kDt));
  const double dt = t2 / steps;
  double integral = 0.0;
  double prev = sojourn(s);
  for (int i = 0; i < steps; ++i) {
    const auto stage = [&](const std::vector<double>& kin, double h) {
      for (int k = 1; k < kLevels; ++k) tmp[k] = s[k] + h * kin[k];
    };
    deriv(s, k1);
    stage(k1, dt / 2);
    deriv(tmp, k2);
    stage(k2, dt / 2);
    deriv(tmp, k3);
    stage(k3, dt);
    deriv(tmp, k4);
    for (int k = 1; k < kLevels; ++k)
      s[k] += dt / 6 * (k1[k] + 2 * k2[k] + 2 * k3[k] + k4[k]);
    const double cur = sojourn(s);
    const double a = i * dt;
    const double b = a + dt;
    // Trapezoid over the part of [a, b] inside [t1, t2].
    if (b > t1) {
      const double lo = std::max(a, t1);
      const double frac_lo = (lo - a) / dt;
      const double f_lo = prev + frac_lo * (cur - prev);
      integral += 0.5 * (f_lo + cur) * (b - lo);
    }
    prev = cur;
  }
  return integral / (t2 - t1);
}

std::string cell_label(const Workload& w, std::size_t i) {
  char buf[96];
  if (w.des.empty()) {
    const BoundsCell& c = w.bounds[i];
    std::snprintf(buf, sizeof buf, "bounds N=%d T=%d rho=%.2f", c.n, c.t,
                  c.rho);
  } else {
    const DesCell& c = w.des[i];
    std::snprintf(buf, sizeof buf, "%s N=%d rho=%.2f", policy_name(c.policy),
                  c.n, c.rho);
  }
  return buf;
}

}  // namespace perfbench
