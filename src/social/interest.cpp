#include "social/interest.h"

#include <algorithm>
#include <stdexcept>

namespace dlm::social {

double jaccard_distance(std::span<const story_id> a,
                        std::span<const story_id> b) {
  if (a.empty() && b.empty()) return 1.0;
  std::size_t intersection = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++intersection;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const std::size_t uni = a.size() + b.size() - intersection;
  return 1.0 - static_cast<double>(intersection) / static_cast<double>(uni);
}

std::vector<double> interest_distances_from(const social_network& net,
                                            user_id source) {
  const auto source_stories = net.stories_of(source);
  std::vector<double> dist(net.user_count(), 1.0);
  for (user_id u = 0; u < net.user_count(); ++u) {
    dist[u] = (u == source)
                  ? 0.0
                  : jaccard_distance(source_stories, net.stories_of(u));
  }
  return dist;
}

interest_grouping group_distances_with_edges(std::span<const double> distances,
                                             user_id source,
                                             std::vector<double> edges) {
  if (edges.empty())
    throw std::invalid_argument("group_distances_with_edges: no edges");
  for (std::size_t k = 1; k < edges.size(); ++k) {
    if (!(edges[k] >= edges[k - 1]))
      throw std::invalid_argument(
          "group_distances_with_edges: edges must be ascending");
  }
  const std::size_t n_groups = edges.size();
  interest_grouping out;
  out.group_of.assign(distances.size(), 0);
  out.sizes.assign(n_groups + 1, 0);

  double max_dist = 0.0;
  for (user_id u = 0; u < distances.size(); ++u) {
    if (u != source) max_dist = std::max(max_dist, distances[u]);
  }
  edges.back() = std::max(edges.back(), max_dist);
  out.edges = edges;

  for (user_id u = 0; u < distances.size(); ++u) {
    if (u == source) {
      out.group_of[u] = 0;
      ++out.sizes[0];
      continue;
    }
    int group = static_cast<int>(n_groups);
    for (std::size_t k = 0; k < n_groups; ++k) {
      if (distances[u] <= edges[k]) {
        group = static_cast<int>(k + 1);
        break;
      }
    }
    out.group_of[u] = group;
    ++out.sizes[static_cast<std::size_t>(group)];
  }
  return out;
}

}  // namespace dlm::social
