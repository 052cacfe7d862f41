// The assembled social dataset: follower graph + vote log.
//
// Owns everything the experiments consume: the directed follower graph
// (edge (a, b) = "a follows b"; b's votes appear in a's feed) and the
// per-story vote streams, indexed both by story and by user.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "social/story.h"

namespace dlm::social {

/// Immutable social dataset.  Construct via `social_network_builder`.
class social_network {
 public:
  social_network(graph::digraph followers, std::vector<vote> votes,
                 std::size_t n_stories);

  /// The follower graph; node v's *feed sources* are successors(v) (the
  /// users v follows) and v's *audience* is predecessors(v).
  [[nodiscard]] const graph::digraph& followers() const noexcept {
    return graph_;
  }

  [[nodiscard]] std::size_t user_count() const noexcept {
    return graph_.node_count();
  }
  [[nodiscard]] std::size_t story_count() const noexcept {
    return story_count_;
  }
  [[nodiscard]] std::size_t vote_count() const noexcept {
    return votes_.size();
  }

  /// Votes on `story`, sorted by timestamp ascending (ties by user id).
  [[nodiscard]] std::span<const vote> votes_for(story_id story) const;

  /// Stories `user` has voted on, sorted ascending, deduplicated.
  [[nodiscard]] std::span<const story_id> stories_of(user_id user) const;

  /// Metadata of `story` (initiator = first voter); std::nullopt if the
  /// story received no votes.
  [[nodiscard]] std::optional<story_info> info(story_id story) const;

 private:
  graph::digraph graph_;
  std::size_t story_count_;
  std::vector<vote> votes_;                  ///< grouped by story, time-sorted
  std::vector<std::size_t> story_offsets_;   ///< story → [begin, end) in votes_
  std::vector<story_id> user_stories_;       ///< grouped by user
  std::vector<std::size_t> user_offsets_;    ///< user → [begin, end)
};

/// Accumulates votes and produces a `social_network`.
class social_network_builder {
 public:
  social_network_builder(graph::digraph followers, std::size_t n_stories);

  /// Records a vote.  Duplicate (user, story) pairs keep only the earliest
  /// vote (a user can digg a story once).  Throws std::out_of_range for bad
  /// user or story ids.
  void add_vote(user_id user, story_id story, timestamp time);

  [[nodiscard]] social_network build();

 private:
  graph::digraph graph_;
  std::size_t n_stories_;
  std::vector<vote> votes_;
};

}  // namespace dlm::social
