#include "digg/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "social/density.h"

namespace {

using namespace dlm::digg;
using dlm::num::rng;
namespace social = dlm::social;
namespace graph = dlm::graph;

// One shared test-scale dataset: generation costs ~50 ms, so build once.
const digg_dataset& shared_dataset() {
  static const digg_dataset data = make_dataset(test_scale_scenario());
  return data;
}

TEST(MakeDataset, StructuralInvariants) {
  const digg_dataset& data = shared_dataset();
  EXPECT_EQ(data.flagship_ids.size(), 4u);
  EXPECT_EQ(data.initiators.size(), 4u);
  EXPECT_EQ(data.hop_partitions.size(), 4u);
  EXPECT_EQ(data.interest_partitions.size(), 4u);
  EXPECT_EQ(data.network.user_count(), 6000u);
  EXPECT_GT(data.network.vote_count(), 1000u);
}

TEST(MakeDataset, DeterministicInSeed) {
  const scenario_config cfg = test_scale_scenario();
  const digg_dataset a = make_dataset(cfg);
  const digg_dataset b = make_dataset(cfg);
  EXPECT_EQ(a.network.vote_count(), b.network.vote_count());
  EXPECT_EQ(a.initiators, b.initiators);
  const auto va = a.network.votes_for(a.flagship_ids[0]);
  const auto vb = b.network.votes_for(b.flagship_ids[0]);
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) EXPECT_EQ(va[i], vb[i]);
}

TEST(MakeDataset, InitiatorIsFirstVoter) {
  const digg_dataset& data = shared_dataset();
  for (std::size_t s = 0; s < data.flagship_ids.size(); ++s) {
    const auto info = data.network.info(data.flagship_ids[s]);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->initiator, data.initiators[s]);
  }
}

TEST(MakeDataset, StoryPopularityOrdering) {
  const digg_dataset& data = shared_dataset();
  std::vector<std::size_t> votes;
  for (auto id : data.flagship_ids)
    votes.push_back(data.network.info(id)->vote_count);
  // s1 > s2 > s3 > s4, like the paper's 24099 > 8521 > 5988 > 1618.
  EXPECT_GT(votes[0], votes[1]);
  EXPECT_GT(votes[1], votes[2]);
  EXPECT_GT(votes[2], votes[3]);
}

TEST(MakeDataset, DensityFieldsAreMonotone) {
  const digg_dataset& data = shared_dataset();
  for (std::size_t s = 0; s < data.flagship_ids.size(); ++s) {
    const social::density_field hops(data.network, data.flagship_ids[s],
                                     data.hop_partitions[s], 50);
    EXPECT_TRUE(hops.is_monotone()) << "story " << s;
    const social::density_field interests(data.network, data.flagship_ids[s],
                                          data.interest_partitions[s], 50);
    EXPECT_TRUE(interests.is_monotone()) << "story " << s;
  }
}

TEST(MakeDataset, HopDensityTracksPresetTargets) {
  // The calibration contract: the realized hop surface of s1 matches the
  // preset targets within quantization noise for the big groups.
  const digg_dataset& data = shared_dataset();
  const story_preset preset = story_s1();
  const social::density_field field(data.network, data.flagship_ids[0],
                                    data.hop_partitions[0], 50);
  for (int x = 2; x <= std::min(4, field.max_distance()); ++x) {
    const std::vector<double> target = target_curve(
        preset.hop_groups[static_cast<std::size_t>(x - 1)],
        preset.hop_surface, 50);
    // Plateau within 15% relative.
    EXPECT_NEAR(field.at(x, 50), target.back(), 0.15 * target.back())
        << "distance " << x;
  }
}

TEST(MakeDataset, Story1ShowsHop3Inversion) {
  // Fig. 3a's key observation: density at hop 3 exceeds hop 2.
  const digg_dataset& data = shared_dataset();
  const social::density_field field(data.network, data.flagship_ids[0],
                                    data.hop_partitions[0], 50);
  EXPECT_GT(field.at(3, 50), field.at(2, 50));
}

TEST(MakeDataset, InterestDensityDecreasesWithDistance) {
  // Fig. 5: all stories show monotone-decreasing plateau vs interest
  // distance.  Tiny groups (< 30 users at this reduced scale) carry too
  // much quantization noise to compare.
  const digg_dataset& data = shared_dataset();
  for (std::size_t s = 0; s < data.flagship_ids.size(); ++s) {
    const social::density_field field(data.network, data.flagship_ids[s],
                                      data.interest_partitions[s], 50);
    double prev = -1.0;
    for (int g = 1; g <= field.max_distance(); ++g) {
      if (field.group_size(g) < 30) continue;
      const double cur = field.at(g, 50);
      if (prev >= 0.0) {
        EXPECT_GE(prev, cur * 0.95) << "story " << s << " group " << g;
      }
      prev = cur;
    }
  }
}

TEST(TopicModel, EveryUserHasClusters) {
  rng r(3);
  const topic_model topics = make_topic_model(500, 12, r);
  EXPECT_EQ(topics.memberships.size(), 500u);
  for (const auto& clusters : topics.memberships) {
    EXPECT_GE(clusters.size(), 1u);
    EXPECT_LE(clusters.size(), 3u);
    for (auto c : clusters) EXPECT_LT(c, 12u);
  }
  EXPECT_THROW((void)make_topic_model(10, 0, r), std::invalid_argument);
}

TEST(BackgroundCorpus, VipsGetHistories) {
  rng r(5);
  const topic_model topics = make_topic_model(2000, 10, r);
  const std::vector<social::user_id> vips{7, 42};
  const auto votes = background_corpus(topics, 60, 0, vips, 15,
                                       corpus_params{}, r);
  std::size_t vip_votes = 0;
  std::set<social::story_id> vip_stories;
  for (const auto& v : votes) {
    if (v.user == 7) {
      ++vip_votes;
      vip_stories.insert(v.story);
    }
  }
  EXPECT_GE(vip_stories.size(), 5u);
}

TEST(SimulateCascade, InitiatorVotesFirst) {
  rng graph_rng(11);
  graph::digg_graph_params gp;
  gp.users = 2000;
  const graph::digraph g = graph::digg_follower_graph(gp, graph_rng);
  cascade_params params;
  params.horizon_hours = 10;
  rng r(12);
  const auto votes = simulate_cascade(g, 0, 0, 1000, params, r);
  ASSERT_FALSE(votes.empty());
  EXPECT_EQ(votes.front().user, 0u);
  EXPECT_EQ(votes.front().time, 1000u);
}

TEST(SimulateCascade, VotesSortedAndUnique) {
  rng graph_rng(13);
  graph::digg_graph_params gp;
  gp.users = 3000;
  const graph::digraph g = graph::digg_follower_graph(gp, graph_rng);
  // Popular initiator for a real cascade.
  graph::node_id init = 0;
  for (graph::node_id v = 0; v < g.node_count(); ++v) {
    if (g.in_degree(v) > g.in_degree(init)) init = v;
  }
  cascade_params params;
  rng r(14);
  const auto votes = simulate_cascade(g, init, 0, 0, params, r);
  std::set<social::user_id> voters;
  for (std::size_t i = 0; i < votes.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(votes[i].time, votes[i - 1].time);
    }
    EXPECT_TRUE(voters.insert(votes[i].user).second) << "duplicate voter";
  }
  // Horizon bound.
  const social::timestamp horizon_end =
      static_cast<social::timestamp>(params.horizon_hours) * 3600;
  for (const auto& v : votes) EXPECT_LE(v.time, horizon_end);
}

TEST(SimulateCascade, NoFrontPageWithoutPromotion) {
  rng graph_rng(15);
  graph::digg_graph_params gp;
  gp.users = 1000;
  const graph::digraph g = graph::digg_follower_graph(gp, graph_rng);
  cascade_params params;
  params.promote_threshold = 1000000;  // never promoted
  params.p_follow = 0.0;               // no follower spreading either
  rng r(16);
  const auto votes = simulate_cascade(g, 0, 0, 0, params, r);
  EXPECT_EQ(votes.size(), 1u);  // just the initiator
}

TEST(SimulateCascade, FrontPageChannelReachesNonFollowers) {
  rng graph_rng(17);
  graph::digg_graph_params gp;
  gp.users = 2000;
  const graph::digraph g = graph::digg_follower_graph(gp, graph_rng);
  cascade_params params;
  params.promote_threshold = 1;  // instant promotion
  params.p_follow = 0.0;         // follower channel off
  params.p_random = 0.05;
  params.front_page_rate = 500.0;
  rng r(18);
  const auto votes = simulate_cascade(g, 0, 0, 0, params, r);
  EXPECT_GT(votes.size(), 10u);  // random arrivals voted
}

TEST(SimulateCascade, InvalidArgumentsThrow) {
  rng graph_rng(19);
  graph::digg_graph_params gp;
  gp.users = 1000;
  const graph::digraph g = graph::digg_follower_graph(gp, graph_rng);
  cascade_params params;
  rng r(20);
  EXPECT_THROW((void)simulate_cascade(g, 99999, 0, 0, params, r),
               std::out_of_range);
  params.horizon_hours = 0;
  EXPECT_THROW((void)simulate_cascade(g, 0, 0, 0, params, r),
               std::invalid_argument);
}

}  // namespace
