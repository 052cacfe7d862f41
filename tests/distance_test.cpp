#include "social/distance.h"

#include <gtest/gtest.h>

#include "graph/digraph.h"
#include "social/network.h"

namespace {

using namespace dlm::social;
namespace graph = dlm::graph;

// Follower chain: 1 follows 0, 2 follows 1, 3 follows 2; 4 isolated.
// Information from 0 flows 0 → 1 → 2 → 3.
graph::digraph chain_graph() {
  graph::digraph_builder b(5);
  b.add_edge(1, 0);
  b.add_edge(2, 1);
  b.add_edge(3, 2);
  return b.build();
}

social_network chain_net() {
  return social_network_builder(chain_graph(), 1).build();
}

TEST(PartitionByHops, ChainDistances) {
  const social_network net = chain_net();
  const distance_partition part = partition_by_hops(net, 0);
  EXPECT_EQ(part.group_of[0], 0);
  EXPECT_EQ(part.group_of[1], 1);
  EXPECT_EQ(part.group_of[2], 2);
  EXPECT_EQ(part.group_of[3], 3);
  EXPECT_EQ(part.group_of[4], -1);  // unreachable
  EXPECT_EQ(part.max_distance(), 3);
  EXPECT_EQ(part.sizes[1], 1u);
  EXPECT_EQ(part.sizes[3], 1u);
}

TEST(PartitionByHops, TruncationFoldsFarUsers) {
  const social_network net = chain_net();
  const distance_partition part = partition_by_hops(net, 0, /*max_hops=*/2);
  EXPECT_EQ(part.group_of[2], 2);
  EXPECT_EQ(part.group_of[3], -1);
  EXPECT_EQ(part.max_distance(), 2);
}

TEST(PartitionByHops, InvalidMaxHopsThrows) {
  const social_network net = chain_net();
  EXPECT_THROW((void)partition_by_hops(net, 0, 0), std::invalid_argument);
}

TEST(PartitionByHops, FollowDirectionIsRespected) {
  // 0 follows 1 (edge 0→1): information from 0 must NOT reach 1.
  graph::digraph_builder b(2);
  b.add_edge(0, 1);
  const social_network net =
      social_network_builder(b.build(), 1).build();
  const distance_partition part = partition_by_hops(net, 0);
  EXPECT_EQ(part.group_of[1], -1);
}

TEST(GroupFractions, SumToOneOverReachable) {
  const social_network net = chain_net();
  const distance_partition part = partition_by_hops(net, 0);
  const std::vector<double> frac = part.group_fractions();
  double total = 0.0;
  for (std::size_t x = 1; x < frac.size(); ++x) total += frac[x];
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(frac[1], 1.0 / 3.0, 1e-12);
}

TEST(DistanceMetric, ToString) {
  EXPECT_EQ(to_string(distance_metric::friendship_hops), "friendship-hops");
  EXPECT_EQ(to_string(distance_metric::shared_interests), "shared-interests");
}

}  // namespace
