#include "graph/bfs.h"

#include <gtest/gtest.h>

#include "graph/digraph.h"

namespace {

using namespace dlm::graph;

digraph path_graph(std::size_t n) {
  digraph_builder b(n);
  for (node_id v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

TEST(Bfs, PathGraphDistances) {
  const digraph g = path_graph(5);
  const auto dist = bfs_distances(g, 0);
  for (node_id v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Bfs, DirectionalityMatters) {
  const digraph g = path_graph(4);
  // Along successors, node 3 cannot reach anything.
  const auto fwd = bfs_distances(g, 3, bfs_direction::successors);
  EXPECT_EQ(fwd[0], unreachable);
  EXPECT_EQ(fwd[3], 0u);
  // Along predecessors it reaches everything.
  const auto back = bfs_distances(g, 3, bfs_direction::predecessors);
  EXPECT_EQ(back[0], 3u);
  // Treating edges as undirected reaches everything from anywhere.
  const auto both = bfs_distances(g, 1, bfs_direction::either);
  EXPECT_EQ(both[3], 2u);
  EXPECT_EQ(both[0], 1u);
}

TEST(Bfs, StarGraph) {
  digraph_builder b(5);
  for (node_id leaf = 1; leaf < 5; ++leaf) b.add_edge(0, leaf);
  const digraph g = b.build();
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  for (node_id leaf = 1; leaf < 5; ++leaf) EXPECT_EQ(dist[leaf], 1u);
}

TEST(Bfs, ShortestPathWins) {
  // Two routes 0→3: direct edge and 0→1→2→3.
  digraph_builder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(0, 3);
  const auto dist = bfs_distances(b.build(), 0);
  EXPECT_EQ(dist[3], 1u);
}

TEST(Bfs, MultiSourceTakesNearest) {
  const digraph g = path_graph(7);
  const auto dist = bfs_distances_multi(g, {0, 5});
  EXPECT_EQ(dist[4], 4u);  // from 0
  EXPECT_EQ(dist[6], 1u);  // from 5
  EXPECT_EQ(dist[5], 0u);
}

TEST(Bfs, MultiSourceDuplicatesHarmless) {
  const digraph g = path_graph(3);
  const auto dist = bfs_distances_multi(g, {0, 0, 0});
  EXPECT_EQ(dist[2], 2u);
}

TEST(Bfs, EmptySourcesThrow) {
  const digraph g = path_graph(3);
  EXPECT_THROW((void)bfs_distances_multi(g, {}), std::invalid_argument);
}

TEST(Bfs, BadSourceThrows) {
  const digraph g = path_graph(3);
  EXPECT_THROW((void)bfs_distances(g, 5), std::out_of_range);
}

}  // namespace
