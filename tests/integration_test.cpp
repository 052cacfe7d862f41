// Cross-module integration: the full paper pipeline end to end.
//
//   synthesize dataset → density surfaces → construct φ from hour 1 →
//   solve the DL equation → verify accuracy and the §II.C properties on
//   the result.

#include <gtest/gtest.h>

#include "core/accuracy.h"
#include "core/dl_model.h"
#include "core/properties.h"
#include "digg/simulator.h"
#include "eval/experiments.h"
#include "social/density.h"

namespace {

using namespace dlm;

TEST(Integration, FullPredictionPipeline) {
  const eval::experiment_context ctx =
      eval::experiment_context::make(digg::test_scale_scenario());
  const social::density_field field =
      ctx.density(0, social::distance_metric::friendship_hops);
  const int upper = std::min(5, field.max_distance());

  std::vector<double> hour1;
  for (int x = 1; x <= upper; ++x) hour1.push_back(field.at(x, 1));

  const core::dl_parameters params = core::dl_parameters::paper_hops(upper);
  const core::dl_model model(params, hour1, 1.0, 6.0);

  // §II.C properties hold on the solved trajectory.
  EXPECT_TRUE(core::check_bounds(model.solution(), params.k).within);
  EXPECT_TRUE(core::check_monotonicity(model.solution()).non_decreasing);

  // 6-hour forecasts stay within a loose small-scale band.
  double acc = 0.0;
  std::size_t cells = 0;
  for (int t = 2; t <= 6; ++t) {
    const std::vector<double> profile = model.predict_profile(t);
    for (int x = 1; x <= upper; ++x) {
      acc += core::prediction_accuracy(
          profile[static_cast<std::size_t>(x - 1)], field.at(x, t));
      ++cells;
    }
  }
  EXPECT_GT(acc / static_cast<double>(cells), 0.55);
}

TEST(Integration, MechanisticCascadeFeedsTheSamePipeline) {
  // Organic (uncalibrated) data flows through the identical machinery.
  num::rng rand(2024);
  graph::digg_graph_params gp;
  gp.users = 4000;
  const graph::digraph g = graph::digg_follower_graph(gp, rand);
  graph::node_id init = 0;
  for (graph::node_id v = 0; v < g.node_count(); ++v) {
    if (g.in_degree(v) > g.in_degree(init)) init = v;
  }
  digg::cascade_params cp;
  cp.horizon_hours = 8;
  const auto votes = digg::simulate_cascade(g, init, 0, 0, cp, rand);
  ASSERT_GT(votes.size(), 20u);

  social::social_network_builder builder(g, 1);
  for (const auto& v : votes) builder.add_vote(v.user, v.story, v.time);
  const social::social_network net = builder.build();
  const social::distance_partition hops =
      social::partition_by_hops(net, init, 6);
  const social::density_field field(net, 0, hops, cp.horizon_hours);
  EXPECT_TRUE(field.is_monotone());

  const int upper = std::min(4, field.max_distance());
  ASSERT_GE(upper, 2);
  std::vector<double> hour1;
  for (int x = 1; x <= upper; ++x) hour1.push_back(field.at(x, 1));
  // An organic cascade can exceed the paper's K = 25 at hop 1; a user of
  // the model picks K above the observed densities.
  core::dl_parameters params = core::dl_parameters::paper_hops(upper);
  for (double v : hour1) params.k = std::max(params.k, 2.0 * v);
  const core::dl_model model(params, hour1, 1.0, cp.horizon_hours);
  EXPECT_TRUE(core::check_bounds(model.solution(), params.k).within);
}

}  // namespace
