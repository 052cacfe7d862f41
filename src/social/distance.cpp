#include "social/distance.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/bfs.h"

namespace dlm::social {

std::string to_string(distance_metric metric) {
  switch (metric) {
    case distance_metric::friendship_hops: return "friendship-hops";
    case distance_metric::shared_interests: return "shared-interests";
  }
  return "unknown";
}

int distance_partition::max_distance() const {
  for (std::size_t x = sizes.size(); x-- > 1;) {
    if (sizes[x] > 0) return static_cast<int>(x);
  }
  return 0;
}

std::vector<double> distance_partition::group_fractions() const {
  std::size_t total = 0;
  for (std::size_t x = 1; x < sizes.size(); ++x) total += sizes[x];
  std::vector<double> frac(sizes.size(), 0.0);
  if (total == 0) return frac;
  for (std::size_t x = 1; x < sizes.size(); ++x)
    frac[x] = static_cast<double>(sizes[x]) / static_cast<double>(total);
  return frac;
}

distance_partition partition_by_hops(const social_network& net,
                                     user_id source) {
  return partition_by_hops(net, source,
                           std::numeric_limits<int>::max());
}

distance_partition partition_by_hops(const social_network& net,
                                     user_id source, int max_hops) {
  if (max_hops < 1)
    throw std::invalid_argument("partition_by_hops: max_hops must be >= 1");
  // Information flows from a voter to the users who follow that voter.
  // Edge (a, b) = "a follows b", so spreading moves along *predecessors*
  // in the digraph (from b to each a with a→b).
  const auto dist = graph::bfs_distances(net.followers(), source,
                                         graph::bfs_direction::predecessors);

  distance_partition part;
  part.metric = distance_metric::friendship_hops;
  part.group_of.assign(net.user_count(), -1);

  graph::hop_distance max_seen = 0;
  for (user_id u = 0; u < net.user_count(); ++u) {
    if (dist[u] == graph::unreachable) continue;
    if (dist[u] > static_cast<graph::hop_distance>(max_hops) && dist[u] != 0)
      continue;
    max_seen = std::max(max_seen, dist[u]);
  }
  part.sizes.assign(static_cast<std::size_t>(max_seen) + 1, 0);
  for (user_id u = 0; u < net.user_count(); ++u) {
    if (dist[u] == graph::unreachable) continue;
    if (dist[u] != 0 && dist[u] > static_cast<graph::hop_distance>(max_hops))
      continue;
    part.group_of[u] = static_cast<int>(dist[u]);
    ++part.sizes[dist[u]];
  }
  return part;
}

}  // namespace dlm::social
