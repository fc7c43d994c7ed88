#include "sqd/exact_reference.h"

#include "markov/gth.h"
#include "sqd/transitions.h"
#include "statespace/state.h"
#include "util/require.h"

namespace rlb::sqd {

markov::Ctmc exact_truncated_chain(const Params& p, int total_cap) {
  p.validate();
  RLB_REQUIRE(total_cap >= 1, "cap must be positive");

  const markov::TransitionFn fn =
      [&p, total_cap](const statespace::State& m) {
        std::vector<markov::Rated> out;
        if (statespace::total_jobs(m) < total_cap) {
          for (Transition& t : arrival_transitions(m, p))
            out.push_back({std::move(t.to), t.rate});
        }
        for (Transition& t : departure_transitions(m, p))
          out.push_back({std::move(t.to), t.rate});
        return out;
      };

  const statespace::State empty(static_cast<std::size_t>(p.N), 0);
  return markov::build_ctmc(empty, fn);
}

ExactResult solve_exact_truncated(const Params& p, int total_cap) {
  const markov::Ctmc chain = exact_truncated_chain(p, total_cap);
  const linalg::Vector pi = markov::stationary_gth(chain.generator);

  ExactResult out;
  out.states = chain.size();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const statespace::State& s = chain.states[i];
    out.mean_waiting_jobs += pi[i] * statespace::waiting_jobs(s);
    out.mean_jobs += pi[i] * statespace::total_jobs(s);
    if (statespace::total_jobs(s) == total_cap) out.truncation_mass += pi[i];
  }
  out.mean_waiting_time = out.mean_waiting_jobs / p.total_arrival_rate();
  out.mean_delay = out.mean_waiting_time + 1.0 / p.mu;
  return out;
}

}  // namespace rlb::sqd
