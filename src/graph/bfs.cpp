#include "graph/bfs.h"

#include <queue>
#include <stdexcept>

namespace dlm::graph {
namespace {

template <typename Expand>
std::vector<hop_distance> bfs_impl(const digraph& g,
                                   const std::vector<node_id>& sources,
                                   Expand&& expand) {
  std::vector<hop_distance> dist(g.node_count(), unreachable);
  std::queue<node_id> frontier;
  for (node_id s : sources) {
    if (s >= g.node_count()) throw std::out_of_range("bfs: bad source node");
    if (dist[s] == unreachable) {  // skip duplicate sources
      dist[s] = 0;
      frontier.push(s);
    }
  }
  while (!frontier.empty()) {
    const node_id v = frontier.front();
    frontier.pop();
    const hop_distance next = dist[v] + 1;
    expand(v, [&](node_id w) {
      if (dist[w] == unreachable) {
        dist[w] = next;
        frontier.push(w);
      }
    });
  }
  return dist;
}

template <typename Visit>
void expand_direction(const digraph& g, node_id v, bfs_direction dir,
                      Visit&& visit) {
  if (dir == bfs_direction::successors || dir == bfs_direction::either) {
    for (node_id w : g.successors(v)) visit(w);
  }
  if (dir == bfs_direction::predecessors || dir == bfs_direction::either) {
    for (node_id w : g.predecessors(v)) visit(w);
  }
}

}  // namespace

std::vector<hop_distance> bfs_distances(const digraph& g, node_id source,
                                        bfs_direction direction) {
  return bfs_distances_multi(g, {source}, direction);
}

std::vector<hop_distance> bfs_distances_multi(
    const digraph& g, const std::vector<node_id>& sources,
    bfs_direction direction) {
  if (sources.empty())
    throw std::invalid_argument("bfs_distances_multi: no sources");
  return bfs_impl(g, sources, [&](node_id v, auto&& visit) {
    expand_direction(g, v, direction, visit);
  });
}

}  // namespace dlm::graph
