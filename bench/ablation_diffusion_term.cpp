// Ablation: what does the diffusion term buy?
// Full DL model vs per-distance logistic (d = 0, temporal-only — the kind
// of model prior work used) vs heat equation (r = 0, diffusion-only) on
// story s1's 6-hour prediction task.

#include <iostream>

#include "eval/ablations.h"
#include "eval/experiments.h"

int main() {
  using namespace dlm;
  const eval::paper_sweeps paper =
      eval::make_paper_sweeps(digg::make_dataset(digg::scenario_config{}));
  eval::print_diffusion_ablation(
      std::cout, paper.context,
      engine::run_sweep(paper.context, paper.diffusion_ablation,
                        paper.options));
  return 0;
}
