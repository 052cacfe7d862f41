// Breadth-first search and hop distances.
//
// The paper's first distance metric is *friendship hops*: the length of the
// shortest path from the information source to a user in the follower graph.
// BFS from the initiator yields the distance group U_x for every user.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/digraph.h"

namespace dlm::graph {

/// Hop distance type; `unreachable` marks nodes with no path from the source.
using hop_distance = std::uint32_t;
inline constexpr hop_distance unreachable =
    std::numeric_limits<hop_distance>::max();

/// Which adjacency BFS expands along.
enum class bfs_direction {
  successors,    ///< follow edges src → dst
  predecessors,  ///< follow edges dst → src (reverse graph)
  either,        ///< treat edges as undirected
};

/// Hop distance from `source` to every node (BFS).  distances[source] == 0;
/// unreachable nodes get `unreachable`.
[[nodiscard]] std::vector<hop_distance> bfs_distances(
    const digraph& g, node_id source,
    bfs_direction direction = bfs_direction::successors);

/// Multi-source BFS: distance to the nearest of `sources`.
[[nodiscard]] std::vector<hop_distance> bfs_distances_multi(
    const digraph& g, const std::vector<node_id>& sources,
    bfs_direction direction = bfs_direction::successors);

}  // namespace dlm::graph
