// Shared-interest distance (paper §II.A, Eq. 1).
//
//   d(a, b) = 1 − |C_a ∩ C_b| / |C_a ∪ C_b|
//
// where C_u is the set of stories user u has voted on — i.e. the Jaccard
// *distance* between vote histories.  Users with identical histories are at
// distance 0; users with disjoint histories at distance 1.  The paper maps
// these continuous distances into five groups (values 1..5) to align with
// friendship hops.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "social/network.h"
#include "social/story.h"

namespace dlm::social {

/// Jaccard distance between two sorted story lists (paper Eq. 1).
/// Both-empty histories are defined as distance 1 (no evidence of shared
/// interest).
[[nodiscard]] double jaccard_distance(std::span<const story_id> a,
                                      std::span<const story_id> b);

/// Shared-interest distance from `source` to every user (vector indexed by
/// user id; distance to self is 0).
[[nodiscard]] std::vector<double> interest_distances_from(
    const social_network& net, user_id source);

/// Partition of continuous interest distances into `n_groups` bins.
struct interest_grouping {
  /// group_of[u] ∈ [1, n_groups], or 0 for the source itself.
  std::vector<int> group_of;
  /// Right bin edges: distances ≤ edges[k] fall in group k+1.
  std::vector<double> edges;
  /// Users per group, indexed 1..n_groups (index 0 counts the source).
  std::vector<std::size_t> sizes;
};

/// Groups every user but `source` by explicit right bin edges over
/// precomputed interest `distances` (ascending edges; the last edge is
/// raised to cover the maximum distance), group 1 = most-shared
/// interests.  The dataset synthesizer picks the edges so the two
/// distance metrics' vote totals are consistent (the paper leaves the
/// choice of "interest ranges" open).
[[nodiscard]] interest_grouping group_distances_with_edges(
    std::span<const double> distances, user_id source,
    std::vector<double> edges);

}  // namespace dlm::social
