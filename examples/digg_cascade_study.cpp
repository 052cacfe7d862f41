// End-to-end study on a synthetic Digg-2009-like dataset.
//
// Replays the paper's §III evaluation: generate the dataset (follower
// graph + background corpus + the four flagship stories), characterize
// the temporal/spatial diffusion patterns, then validate the DL model's
// 6-hour forecasts under both distance metrics.
//
// Build & run:  ./build/examples/digg_cascade_study

#include <cstdio>
#include <iostream>

#include "eval/experiments.h"
#include "eval/table.h"

int main() {
  using namespace dlm;

  // Reduced scale so the example runs in a few seconds; the bench binaries
  // use the default (larger) scenario.
  digg::scenario_config config = digg::test_scale_scenario();
  std::printf("generating synthetic Digg dataset: %zu users, %zu background "
              "stories, seed %llu...\n",
              config.graph.users, config.background_stories,
              static_cast<unsigned long long>(config.seed));
  const eval::experiment_context ctx = eval::experiment_context::make(config);

  const auto& net = ctx.data.network;
  std::printf("dataset: %zu users, %zu stories, %zu votes\n\n",
              net.user_count(), net.story_count(), net.vote_count());

  eval::text_table stories({"story", "votes", "initiator", "followers",
                            "reachable hops"});
  for (std::size_t s = 0; s < ctx.data.flagship_ids.size(); ++s) {
    const auto info = net.info(ctx.data.flagship_ids[s]);
    const auto& hops = ctx.data.hop_partitions[s];
    std::size_t reachable = 0;
    for (std::size_t x = 1; x < hops.sizes.size(); ++x)
      reachable += hops.sizes[x];
    stories.add_row({ctx.data.config.stories[s].name,
                     eval::text_table::count(info ? info->vote_count : 0),
                     std::to_string(ctx.data.initiators[s]),
                     eval::text_table::count(
                         net.followers().in_degree(ctx.data.initiators[s])),
                     eval::text_table::count(reachable)});
  }
  std::cout << stories << "\n";

  // Temporal/spatial characterization (paper Fig. 2 and Fig. 3 style).
  const eval::fig2_result fig2 = eval::run_fig2(ctx);
  eval::print_fig2(std::cout, fig2);

  const eval::density_series_result s1_hops = eval::run_density_series(
      ctx, 0, social::distance_metric::friendship_hops);
  eval::print_density_series(std::cout, s1_hops,
                             "Density series (story s1, hops)");

  // DL validation, both metrics (paper Fig. 7 + Tables I/II): the paper's
  // prediction sweep over the same dataset.
  const eval::paper_sweeps paper = eval::make_paper_sweeps(ctx.data);
  const engine::sweep_result result =
      engine::run_sweep(paper.context, paper.prediction, paper.options);
  const engine::dataset_slice& hops =
      paper.context.slice(result.table.row(0).slice);
  const engine::dataset_slice& interests =
      paper.context.slice(result.table.row(1).slice);
  eval::print_fig7(std::cout, result.traces[0], hops);
  eval::print_accuracy_table(std::cout, hops,
                             eval::trace_accuracy(result.traces[0], hops),
                             eval::paper_table1(), "Table I reproduction");
  eval::print_accuracy_table(
      std::cout, interests, eval::trace_accuracy(result.traces[1], interests),
      eval::paper_table2(), "Table II reproduction");
  return 0;
}
