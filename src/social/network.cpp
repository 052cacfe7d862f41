#include "social/network.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace dlm::social {

social_network::social_network(graph::digraph followers,
                               std::vector<vote> votes, std::size_t n_stories)
    : graph_(std::move(followers)), story_count_(n_stories),
      votes_(std::move(votes)) {
  // Group by story, then time, then user; this is the canonical order.
  std::sort(votes_.begin(), votes_.end(), [](const vote& a, const vote& b) {
    if (a.story != b.story) return a.story < b.story;
    if (a.time != b.time) return a.time < b.time;
    return a.user < b.user;
  });

  story_offsets_.assign(story_count_ + 1, 0);
  for (const vote& v : votes_) {
    if (v.story >= story_count_)
      throw std::out_of_range("social_network: story id out of range");
    if (v.user >= graph_.node_count())
      throw std::out_of_range("social_network: user id out of range");
    ++story_offsets_[v.story + 1];
  }
  for (std::size_t s = 0; s < story_count_; ++s)
    story_offsets_[s + 1] += story_offsets_[s];

  // Per-user story lists (deduplicated by construction upstream, but be
  // safe: dedup here too).
  user_offsets_.assign(graph_.node_count() + 1, 0);
  for (const vote& v : votes_) ++user_offsets_[v.user + 1];
  for (std::size_t u = 0; u < graph_.node_count(); ++u)
    user_offsets_[u + 1] += user_offsets_[u];
  user_stories_.assign(votes_.size(), 0);
  std::vector<std::size_t> cursor(user_offsets_.begin(),
                                  user_offsets_.end() - 1);
  for (const vote& v : votes_) user_stories_[cursor[v.user]++] = v.story;
  for (std::size_t u = 0; u < graph_.node_count(); ++u) {
    auto first = user_stories_.begin() + static_cast<std::ptrdiff_t>(user_offsets_[u]);
    auto last = user_stories_.begin() + static_cast<std::ptrdiff_t>(user_offsets_[u + 1]);
    std::sort(first, last);
  }
}

std::span<const vote> social_network::votes_for(story_id story) const {
  if (story >= story_count_)
    throw std::out_of_range("social_network::votes_for: bad story");
  return {votes_.data() + story_offsets_[story],
          story_offsets_[story + 1] - story_offsets_[story]};
}

std::span<const story_id> social_network::stories_of(user_id user) const {
  if (user >= graph_.node_count())
    throw std::out_of_range("social_network::stories_of: bad user");
  return {user_stories_.data() + user_offsets_[user],
          user_offsets_[user + 1] - user_offsets_[user]};
}

std::optional<story_info> social_network::info(story_id story) const {
  const auto vs = votes_for(story);
  if (vs.empty()) return std::nullopt;
  story_info meta;
  meta.id = story;
  meta.initiator = vs.front().user;
  meta.submitted = vs.front().time;
  meta.vote_count = vs.size();
  meta.title = "story-" + std::to_string(story);
  return meta;
}

social_network_builder::social_network_builder(graph::digraph followers,
                                               std::size_t n_stories)
    : graph_(std::move(followers)), n_stories_(n_stories) {}

void social_network_builder::add_vote(user_id user, story_id story,
                                      timestamp time) {
  if (user >= graph_.node_count())
    throw std::out_of_range("add_vote: user out of range");
  if (story >= n_stories_)
    throw std::out_of_range("add_vote: story out of range");
  votes_.push_back({user, story, time});
}

social_network social_network_builder::build() {
  // Keep only the earliest vote per (user, story).
  std::sort(votes_.begin(), votes_.end(), [](const vote& a, const vote& b) {
    if (a.user != b.user) return a.user < b.user;
    if (a.story != b.story) return a.story < b.story;
    return a.time < b.time;
  });
  votes_.erase(std::unique(votes_.begin(), votes_.end(),
                           [](const vote& a, const vote& b) {
                             return a.user == b.user && a.story == b.story;
                           }),
               votes_.end());
  return social_network(std::move(graph_), std::move(votes_), n_stories_);
}

}  // namespace dlm::social
