#include "social/density.h"

#include <gtest/gtest.h>

#include "graph/digraph.h"
#include "social/network.h"

namespace {

using namespace dlm::social;
namespace graph = dlm::graph;

// Star: users 1..4 follow user 0; users 5, 6 follow user 1.
graph::digraph star_graph() {
  graph::digraph_builder b(7);
  for (user_id u = 1; u <= 4; ++u) b.add_edge(u, 0);
  b.add_edge(5, 1);
  b.add_edge(6, 1);
  return b.build();
}

social_network voted_net() {
  social_network_builder b(star_graph(), 1);
  const timestamp hour = seconds_per_hour;
  b.add_vote(0, 0, 0);            // initiator, t = 0 → snapshot 1
  b.add_vote(1, 0, hour / 2);     // hop 1, hour 1
  b.add_vote(2, 0, hour + 10);    // hop 1, hour 2
  b.add_vote(5, 0, 2 * hour + 5); // hop 2, hour 3
  return b.build();
}

TEST(DensityField, CumulativePercentages) {
  const social_network net = voted_net();
  const distance_partition part = partition_by_hops(net, 0);
  const density_field field(net, 0, part, /*horizon=*/4);

  // Hop-1 group = {1,2,3,4} (4 users), hop-2 group = {5,6} (2 users).
  EXPECT_EQ(field.group_size(1), 4u);
  EXPECT_EQ(field.group_size(2), 2u);

  EXPECT_DOUBLE_EQ(field.at(1, 1), 25.0);   // 1 of 4 by hour 1
  EXPECT_DOUBLE_EQ(field.at(1, 2), 50.0);   // 2 of 4 by hour 2
  EXPECT_DOUBLE_EQ(field.at(1, 4), 50.0);   // unchanged afterwards
  EXPECT_DOUBLE_EQ(field.at(2, 2), 0.0);
  EXPECT_DOUBLE_EQ(field.at(2, 3), 50.0);   // 1 of 2 by hour 3
}

TEST(DensityField, SeriesAtDistance) {
  const social_network net = voted_net();
  const distance_partition part = partition_by_hops(net, 0);
  const density_field field(net, 0, part, 4);

  const std::vector<double> series = field.series_at_distance(1);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_DOUBLE_EQ(series[0], 25.0);
  EXPECT_DOUBLE_EQ(series[3], 50.0);
}

TEST(DensityField, AlwaysMonotone) {
  const social_network net = voted_net();
  const distance_partition part = partition_by_hops(net, 0);
  const density_field field(net, 0, part, 4);
  EXPECT_TRUE(field.is_monotone());
}

TEST(DensityField, LateVotesClampToHorizon) {
  social_network_builder b(star_graph(), 1);
  b.add_vote(0, 0, 0);
  b.add_vote(1, 0, 100 * seconds_per_hour);  // far past the horizon
  const social_network net = b.build();
  const distance_partition part = partition_by_hops(net, 0);
  const density_field field(net, 0, part, 4);
  // The late vote is folded into the final snapshot.
  EXPECT_DOUBLE_EQ(field.at(1, 4), 25.0);
  EXPECT_DOUBLE_EQ(field.at(1, 3), 0.0);
}

TEST(DensityField, MetricCarriesThrough) {
  const social_network net = voted_net();
  const distance_partition part = partition_by_hops(net, 0);
  const density_field field(net, 0, part, 2);
  EXPECT_EQ(field.metric(), distance_metric::friendship_hops);
}

TEST(DensityField, OutOfRangeAccessThrows) {
  const social_network net = voted_net();
  const distance_partition part = partition_by_hops(net, 0);
  const density_field field(net, 0, part, 4);
  EXPECT_THROW((void)field.at(0, 1), std::out_of_range);
  EXPECT_THROW((void)field.at(3, 1), std::out_of_range);
  EXPECT_THROW((void)field.at(1, 0), std::out_of_range);
  EXPECT_THROW((void)field.at(1, 5), std::out_of_range);
}

TEST(DensityField, InvalidConstructionThrows) {
  const social_network net = voted_net();
  const distance_partition part = partition_by_hops(net, 0);
  EXPECT_THROW((void)density_field(net, 0, part, 0), std::invalid_argument);

  // Story with no votes.
  social_network_builder b(star_graph(), 2);
  b.add_vote(0, 0, 0);
  const social_network net2 = b.build();
  const distance_partition part2 = partition_by_hops(net2, 0);
  EXPECT_THROW((void)density_field(net2, 1, part2, 4), std::invalid_argument);
}

}  // namespace
