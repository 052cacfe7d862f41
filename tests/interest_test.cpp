#include "social/interest.h"

#include <gtest/gtest.h>

#include "graph/digraph.h"
#include "social/network.h"

namespace {

using namespace dlm::social;
namespace graph = dlm::graph;

social_network history_net() {
  // 4 users, 6 stories.  Vote histories:
  //   u0: {0,1,2}   u1: {0,1,2}   u2: {0,5}   u3: {}
  social_network_builder b(graph::digraph(4), 6);
  for (story_id s : {0, 1, 2}) {
    b.add_vote(0, s, 10 + s);
    b.add_vote(1, s, 20 + s);
  }
  b.add_vote(2, 0, 30);
  b.add_vote(2, 5, 31);
  return b.build();
}

TEST(Jaccard, IdenticalHistories) {
  const std::vector<story_id> a{1, 2, 3};
  EXPECT_DOUBLE_EQ(jaccard_distance(a, a), 0.0);
}

TEST(Jaccard, DisjointHistories) {
  const std::vector<story_id> a{1, 2};
  const std::vector<story_id> b{3, 4};
  EXPECT_DOUBLE_EQ(jaccard_distance(a, b), 1.0);
}

TEST(Jaccard, PartialOverlapMatchesPaperEq1) {
  // |∩| = 1, |∪| = 3 → d = 1 − 1/3.
  const std::vector<story_id> a{1, 2};
  const std::vector<story_id> b{2, 3};
  EXPECT_NEAR(jaccard_distance(a, b), 1.0 - 1.0 / 3.0, 1e-12);
}

TEST(Jaccard, EmptyHistoriesAreMaximallyDistant) {
  const std::vector<story_id> a;
  const std::vector<story_id> b{1};
  EXPECT_DOUBLE_EQ(jaccard_distance(a, a), 1.0);
  EXPECT_DOUBLE_EQ(jaccard_distance(a, b), 1.0);
}

TEST(InterestDistancesFrom, SelfIsZero) {
  const social_network net = history_net();
  const std::vector<double> dist = interest_distances_from(net, 0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 0.0);  // identical history
  EXPECT_NEAR(dist[2], 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(dist[3], 1.0);
}

TEST(GroupWithEdges, ExplicitEdgesRespected) {
  const std::vector<double> dist = interest_distances_from(history_net(), 0);
  const interest_grouping grouping =
      group_distances_with_edges(dist, 0, {0.1, 0.8, 1.0});
  EXPECT_EQ(grouping.group_of[1], 1);  // distance 0 ≤ 0.1
  EXPECT_EQ(grouping.group_of[2], 2);  // 0.75 ≤ 0.8
  EXPECT_EQ(grouping.group_of[3], 3);  // 1.0
}

TEST(GroupWithEdges, LastEdgeRaisedToCoverMax) {
  const std::vector<double> dist = interest_distances_from(history_net(), 0);
  // Max distance is 1.0 but the last edge is 0.5: it must be raised so
  // every user lands in a group.
  const interest_grouping grouping =
      group_distances_with_edges(dist, 0, {0.2, 0.5});
  for (user_id u = 0; u < dist.size(); ++u) {
    if (u == 0) continue;
    EXPECT_GE(grouping.group_of[u], 1);
    EXPECT_LE(grouping.group_of[u], 2);
  }
}

TEST(GroupWithEdges, InvalidEdgesThrow) {
  const std::vector<double> dist = interest_distances_from(history_net(), 0);
  EXPECT_THROW((void)group_distances_with_edges(dist, 0, {}),
               std::invalid_argument);
  EXPECT_THROW((void)group_distances_with_edges(dist, 0, {0.8, 0.2}),
               std::invalid_argument);
}

}  // namespace
