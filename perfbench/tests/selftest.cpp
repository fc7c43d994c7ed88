// Determinism self-test for the benchmark's inputs and outputs:
//   - the same seed gives identical inputs, another seed different ones
//     (paper_bounds is deterministic and ignores the seed);
//   - a shrunken paper_small_n (and Fig. 10(a)) gives bit-identical
//     outputs at 1 thread and at up to 4 threads.
// Exits non-zero and names each failed check.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "util/thread_budget.h"
#include "workloads.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void same_outputs_across_threads(const perfbench::Workload& w, int threads) {
  rlb::util::ThreadBudget serial(1);
  rlb::util::ThreadBudget parallel(threads);
  const perfbench::Rep a = perfbench::run_rep(w, serial);
  const perfbench::Rep b = perfbench::run_rep(w, parallel);
  bool same = a.cells.size() == b.cells.size() && !a.cells.empty();
  for (std::size_t i = 0; same && i < a.cells.size(); ++i)
    same = perfbench::same_output(a.cells[i], b.cells[i]);
  expect(same, w.name + ": outputs bit-identical at 1 and " +
                   std::to_string(threads) + " threads");
}

}  // namespace

int main() {
  for (const std::string& name : perfbench::workload_names()) {
    const auto a = perfbench::make_workload(name, 7);
    expect(a.cells() > 0, name + ": has cells");
    expect(a == perfbench::make_workload(name, 7),
           name + ": same seed, identical inputs");
    const bool differs = !(a == perfbench::make_workload(name, 8));
    if (name == "paper_bounds")
      expect(!differs, name + ": inputs ignore the seed");
    else
      expect(differs, name + ": another seed, different inputs");
  }

  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int threads = std::max(2, std::min(4, hw));
  same_outputs_across_threads(
      perfbench::shrink(perfbench::make_workload("paper_small_n", 7), 20),
      threads);
  same_outputs_across_threads(
      perfbench::shrink(perfbench::make_workload("paper_bounds", 7), 1),
      threads);

  std::printf("%d check(s) failed\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
