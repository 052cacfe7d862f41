// Ablation: growth-rate family.  Paper's decaying exponential (Eq. 7)
// vs constant rates vs rates calibrated by least squares on the t ≤ 4
// window — temporal r(t) and the §V spatio-temporal r(x, t) = m(x)·r(t),
// fixed and fitted — all evaluated on story s1's t = 2..6 prediction
// task, with fit-window SSE reported for the calibrated rows.

#include <iostream>

#include "eval/ablations.h"
#include "eval/experiments.h"

int main() {
  using namespace dlm;
  const eval::paper_sweeps paper =
      eval::make_paper_sweeps(digg::make_dataset(digg::scenario_config{}));
  eval::print_growth_ablation(
      std::cout,
      engine::run_sweep(paper.context, paper.growth_ablation, paper.options)
          .table);
  return 0;
}
