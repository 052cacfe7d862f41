// Regenerates paper Figure 7(a, b): DL-model predictions vs actual
// densities for story s1 at t = 1..6 under both distance metrics.
// Parameters follow §III.C exactly: (a) d=0.01, K=25,
// r(t)=1.4e^{−1.5(t−1)}+0.25; (b) d=0.05, K=60, r(t)=1.6e^{−(t−1)}+0.1;
// φ is constructed from the hour-1 data by clamped cubic spline.
// Paper shape: predictions closely track the actual surfaces, except the
// interest-metric distance-5 group where the model overpredicts.

#include <iostream>

#include "eval/experiments.h"

int main() {
  using namespace dlm;
  const eval::paper_sweeps paper =
      eval::make_paper_sweeps(digg::make_dataset(digg::scenario_config{}));
  const engine::sweep_result result =
      engine::run_sweep(paper.context, paper.prediction, paper.options);
  // Row 0 is s1/hops (Fig. 7(a)), row 1 s1/interests (Fig. 7(b)).
  for (std::size_t i = 0; i < result.table.size(); ++i) {
    std::cout << "--- Figure 7(" << (i == 0 ? 'a' : 'b') << ")\n";
    eval::print_fig7(std::cout, result.traces[i],
                     paper.context.slice(result.table.row(i).slice));
  }
  return 0;
}
