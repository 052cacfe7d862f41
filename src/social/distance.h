// Unified distance-group assignment (paper §II.A).
//
// The DL model's spatial axis is "distance from the source", measured
// either as *friendship hops* (BFS over the follower graph, information
// flowing source → its followers → their followers, i.e. along reversed
// follow edges) or as *shared interests* (Jaccard groups).  This module
// maps every user to a distance group 1..max and records group sizes —
// the denominators of the density field.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "social/interest.h"
#include "social/network.h"
#include "social/story.h"

namespace dlm::social {

/// Which of the paper's two distance metrics to use.
enum class distance_metric {
  friendship_hops,
  shared_interests,
};

[[nodiscard]] std::string to_string(distance_metric metric);

/// A complete distance partition for one story's initiator.
struct distance_partition {
  distance_metric metric = distance_metric::friendship_hops;
  /// group_of[u]: 1-based distance group, 0 for the source, -1 for users
  /// outside every group (unreachable from the source for hop distance).
  std::vector<int> group_of;
  /// sizes[x]: number of users in group x (index 0 = the source alone).
  std::vector<std::size_t> sizes;

  /// Largest group index with at least one user (the spatial domain bound L).
  [[nodiscard]] int max_distance() const;

  /// Fraction of reachable users per group (paper Fig. 2's y-axis):
  /// sizes[x] / Σ_{x>=1} sizes[x].
  [[nodiscard]] std::vector<double> group_fractions() const;
};

/// Friendship-hop partition: BFS from `source` through its audience
/// (followers, i.e. reversed follow edges).  Group x = users exactly x
/// hops away; unreachable users get group -1.
[[nodiscard]] distance_partition partition_by_hops(const social_network& net,
                                                   user_id source);

/// Hop partition truncated at `max_hops`: users farther than `max_hops`
/// (but reachable) are folded into group -1 as well.  The paper's analysis
/// keeps hops 1..5 because greater distances hold too few users.
[[nodiscard]] distance_partition partition_by_hops(const social_network& net,
                                                   user_id source,
                                                   int max_hops);

}  // namespace dlm::social
