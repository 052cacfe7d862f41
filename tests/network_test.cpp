#include "social/network.h"

#include <gtest/gtest.h>

#include "graph/digraph.h"

namespace {

using namespace dlm::social;
namespace graph = dlm::graph;

graph::digraph small_graph() {
  graph::digraph_builder b(5);
  b.add_edge(1, 0);  // 1 follows 0
  b.add_edge(2, 0);
  b.add_edge(3, 1);
  return b.build();
}

social_network make_net() {
  social_network_builder b(small_graph(), 3);
  b.add_vote(0, 0, 100);  // initiator of story 0
  b.add_vote(1, 0, 200);
  b.add_vote(2, 0, 150);
  b.add_vote(1, 1, 50);
  b.add_vote(4, 1, 60);
  return b.build();
}

TEST(SocialNetwork, BasicCounts) {
  const social_network net = make_net();
  EXPECT_EQ(net.user_count(), 5u);
  EXPECT_EQ(net.story_count(), 3u);
  EXPECT_EQ(net.vote_count(), 5u);
}

TEST(SocialNetwork, VotesSortedByTime) {
  const social_network net = make_net();
  const auto votes = net.votes_for(0);
  ASSERT_EQ(votes.size(), 3u);
  EXPECT_EQ(votes[0].user, 0u);
  EXPECT_EQ(votes[1].user, 2u);  // t=150 before t=200
  EXPECT_EQ(votes[2].user, 1u);
}

TEST(SocialNetwork, DuplicateVotesKeepEarliest) {
  social_network_builder b(small_graph(), 1);
  b.add_vote(1, 0, 500);
  b.add_vote(1, 0, 100);
  b.add_vote(1, 0, 900);
  const social_network net = b.build();
  const auto votes = net.votes_for(0);
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_EQ(votes[0].time, 100u);
}

TEST(SocialNetwork, StoriesOfUser) {
  const social_network net = make_net();
  const auto stories = net.stories_of(1);
  ASSERT_EQ(stories.size(), 2u);
  EXPECT_EQ(stories[0], 0u);
  EXPECT_EQ(stories[1], 1u);
  EXPECT_TRUE(net.stories_of(3).empty());
}

TEST(SocialNetwork, StoryInfo) {
  const social_network net = make_net();
  const auto info = net.info(0);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->initiator, 0u);
  EXPECT_EQ(info->submitted, 100u);
  EXPECT_EQ(info->vote_count, 3u);
  EXPECT_FALSE(net.info(2).has_value());  // no votes
}

TEST(SocialNetwork, OutOfRangeAccessThrows) {
  const social_network net = make_net();
  EXPECT_THROW((void)net.votes_for(9), std::out_of_range);
  EXPECT_THROW((void)net.stories_of(9), std::out_of_range);
}

TEST(SocialNetworkBuilder, RejectsBadIds) {
  social_network_builder b(small_graph(), 2);
  EXPECT_THROW(b.add_vote(9, 0, 1), std::out_of_range);
  EXPECT_THROW(b.add_vote(0, 5, 1), std::out_of_range);
}

TEST(HoursSince, ForwardAndBackward) {
  EXPECT_DOUBLE_EQ(hours_since(0, 7200), 2.0);
  EXPECT_DOUBLE_EQ(hours_since(3600, 5400), 0.5);
  EXPECT_DOUBLE_EQ(hours_since(7200, 0), -2.0);
}

}  // namespace
