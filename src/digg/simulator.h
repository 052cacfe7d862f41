// Synthetic Digg-2009 dataset generation.
//
// Two generation modes (DESIGN.md §3):
//
//  * `make_dataset` — the *calibrated* pipeline used by the figure/table
//    benches.  It builds the follower graph, simulates a background corpus
//    of stories (giving every user a vote history, hence an interest
//    profile), then samples each flagship story's votes so that the
//    realized density surfaces match the paper's published curves under
//    BOTH distance metrics simultaneously (IPF over the hop×interest
//    contingency table, per-group vote-time distributions).
//
//  * `simulate_cascade` — a *mechanistic* event-driven cascade with the
//    two propagation channels the paper describes for Digg: follower-
//    driven spreading (a vote exposes the voter's followers) and
//    front-page promotion (after enough votes, random users arrive and
//    vote).  Used by examples and the organic-data ablation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "digg/presets.h"
#include "graph/digraph.h"
#include "numerics/rng.h"
#include "social/distance.h"
#include "social/network.h"
#include "social/story.h"

namespace dlm::digg {

/// Everything the experiments need about one generated dataset.
struct digg_dataset {
  social::social_network network;  ///< graph + background + flagship votes
  /// Story ids of the flagship stories, in preset order (s1 first).
  std::vector<social::story_id> flagship_ids;
  /// Initiator of each flagship story.
  std::vector<social::user_id> initiators;
  /// Hop partition used when sampling each flagship story.
  std::vector<social::distance_partition> hop_partitions;
  /// Interest partition (computed on the background corpus) per story.
  std::vector<social::distance_partition> interest_partitions;
  /// The scenario that generated the dataset.
  scenario_config config;
};

/// Generates the calibrated dataset for `config`.  Deterministic in
/// `config.seed`.
[[nodiscard]] digg_dataset make_dataset(const scenario_config& config);

/// Parameters of the mechanistic cascade simulator.
struct cascade_params {
  double p_follow = 0.02;          ///< P(vote | one feed exposure)
  double response_rate = 0.9;      ///< 1/h — mean exposure→vote delay 1/rate
  std::size_t promote_threshold = 50;  ///< votes needed to reach front page
  double front_page_rate = 300.0;  ///< arrivals/hour right after promotion
  double front_page_decay = 12.0;  ///< hours; arrival rate e-folding time
  double p_random = 0.004;         ///< P(vote | front-page arrival)
  int horizon_hours = 50;
};

/// Simulates one story's cascade on `g` from `initiator`, submitted at
/// `submit`.  Returns the votes (initiator's vote first).  Deterministic
/// in `rand`.
[[nodiscard]] std::vector<social::vote> simulate_cascade(
    const graph::digraph& g, social::user_id initiator,
    social::story_id story, social::timestamp submit,
    const cascade_params& params, num::rng& rand);

/// Per-user topic-cluster memberships used by the background corpus.
struct topic_model {
  std::size_t clusters = 24;
  /// memberships[u]: the clusters user u belongs to (1–3 each).
  std::vector<std::vector<std::uint32_t>> memberships;
};

/// Assigns every user 1–3 topic clusters.
[[nodiscard]] topic_model make_topic_model(std::size_t users,
                                           std::size_t clusters,
                                           num::rng& rand);

/// Corpus volume/coherence knobs.
struct corpus_params {
  /// Mean background votes per user.  Dense histories (≈8+) are required
  /// for shared-interest distance to spread away from 1.
  double mean_user_activity = 8.0;
  /// Probability a vote comes from the story's topic cluster (the rest are
  /// uniform front-page browsers).
  double cluster_affinity = 0.85;
};

/// Background-corpus votes: `n_stories` stories (ids [first_story,
/// first_story + n_stories)), each drawing voters mostly from one topic
/// cluster with heavy-tailed per-user activity.  Builds the vote histories
/// that make shared-interest distance meaningful.  Every user in `vips`
/// (flagship initiators) gets a history of at least `vip_min_history`
/// votes on stories within their own topic clusters.
[[nodiscard]] std::vector<social::vote> background_corpus(
    const topic_model& topics, std::size_t n_stories,
    social::story_id first_story, std::span<const social::user_id> vips,
    std::size_t vip_min_history, const corpus_params& params, num::rng& rand);

}  // namespace dlm::digg
