#include "graph/generators.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/bfs.h"

namespace {

using namespace dlm::graph;
using dlm::num::rng;

TEST(DiggGraph, Determinism) {
  digg_graph_params params;
  params.users = 3000;
  rng r1(99), r2(99);
  const digraph a = digg_follower_graph(params, r1);
  const digraph b = digg_follower_graph(params, r2);
  EXPECT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(DiggGraph, LurkersFollowNobody) {
  digg_graph_params params;
  params.users = 5000;
  params.lurker_ratio = 0.5;
  // Disable the celebrity clique so it cannot hand out-edges to lurkers.
  params.celebrity_clique_p = 0.0;
  rng r(7);
  const digraph g = digg_follower_graph(params, r);
  std::size_t no_out = 0;
  for (node_id v = 0; v < g.node_count(); ++v) {
    if (g.out_degree(v) == 0) ++no_out;
  }
  // Roughly half the users never follow anyone.
  EXPECT_NEAR(static_cast<double>(no_out) / 5000.0, 0.5, 0.06);
}

TEST(DiggGraph, CelebritiesAccumulateFollowers) {
  digg_graph_params params;
  params.users = 8000;
  rng r(8);
  const digraph g = digg_follower_graph(params, r);
  // Mean in-degree of the celebrity pool must dwarf the global mean.
  double pool_mean = 0.0;
  for (node_id v = 0; v < params.celebrity_pool; ++v)
    pool_mean += static_cast<double>(g.in_degree(v));
  pool_mean /= static_cast<double>(params.celebrity_pool);
  const double global_mean =
      static_cast<double>(g.edge_count()) / 8000.0;
  EXPECT_GT(pool_mean, 5.0 * global_mean);
}

TEST(DiggGraph, HopDistributionShape) {
  // The paper's Fig. 2 structure: from a top account, hop 3 holds the
  // plurality of reachable users and the tail dies out within ~10 hops.
  digg_graph_params params;
  params.users = 20000;
  rng r(20090601);
  const digraph g = digg_follower_graph(params, r);

  node_id initiator = 0;
  for (node_id v = 0; v < g.node_count(); ++v) {
    if (g.in_degree(v) > g.in_degree(initiator)) initiator = v;
  }
  const auto dist = bfs_distances(g, initiator, bfs_direction::predecessors);
  std::vector<std::size_t> hist(16, 0);
  std::size_t reachable = 0;
  for (auto d : dist) {
    if (d == unreachable || d == 0) continue;
    ++reachable;
    if (d < 16) ++hist[d];
  }
  ASSERT_GT(reachable, 1000u);
  // Peak within hops 2..4 holding > 25% of the reachable set at this
  // reduced scale (the bench-scale run reproduces the paper's >40%).
  const std::size_t peak = *std::max_element(hist.begin() + 1, hist.end());
  EXPECT_TRUE(peak == hist[2] || peak == hist[3] || peak == hist[4]);
  EXPECT_GT(static_cast<double>(peak) / static_cast<double>(reachable), 0.25);
}

TEST(DiggGraph, InvalidParamsThrow) {
  rng r(9);
  digg_graph_params params;
  params.users = 5;
  EXPECT_THROW((void)digg_follower_graph(params, r), std::invalid_argument);
  params = {};
  params.users = 1000;
  params.hub_reciprocation = 1.5;
  EXPECT_THROW((void)digg_follower_graph(params, r), std::invalid_argument);
}

}  // namespace
