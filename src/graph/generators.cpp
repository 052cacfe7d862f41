#include "graph/generators.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace dlm::graph {

digraph digg_follower_graph(const digg_graph_params& params, num::rng& rand) {
  const std::size_t n = params.users;
  const std::size_t attach = params.attach;
  if (attach == 0)
    throw std::invalid_argument("digg_follower_graph: attach == 0");
  if (n <= attach + params.local_links + 1)
    throw std::invalid_argument("digg_follower_graph: too few users");
  if (params.hub_reciprocation < 0.0 || params.hub_reciprocation > 1.0 ||
      params.local_reciprocation < 0.0 || params.local_reciprocation > 1.0)
    throw std::invalid_argument("digg_follower_graph: bad reciprocation");
  if (params.random_follow_ratio < 0.0 || params.random_follow_ratio > 1.0)
    throw std::invalid_argument("digg_follower_graph: bad random_follow_ratio");

  digraph_builder b(n);
  std::vector<node_id> endpoints;  // preferential-attachment pool
  endpoints.reserve(2 * n * attach);
  std::vector<bool> is_lurker(n, false);

  const auto follow = [&](node_id src, node_id dst, bool preferential) {
    b.add_edge(src, dst);
    if (preferential) {
      endpoints.push_back(src);
      endpoints.push_back(dst);
    }
    if (is_lurker[dst]) return;  // lurkers never follow back
    const double reciprocation = preferential ? params.hub_reciprocation
                                              : params.local_reciprocation;
    if (rand.bernoulli(reciprocation)) {
      b.add_edge(dst, src);
      if (preferential) {
        endpoints.push_back(dst);
        endpoints.push_back(src);
      }
    }
  };

  const std::size_t kernel = attach + params.local_links + 1;
  for (node_id i = 0; i < kernel; ++i) {
    for (node_id j = 0; j < kernel; ++j) {
      if (i == j) continue;
      b.add_edge(i, j);
      endpoints.push_back(i);
      endpoints.push_back(j);
    }
  }

  std::size_t loner_remaining = 0;
  for (node_id v = static_cast<node_id>(kernel); v < n; ++v) {
    // Lurkers browse but follow nobody: unreachable via follow links.
    if (rand.bernoulli(params.lurker_ratio)) {
      is_lurker[v] = true;
      continue;
    }

    // Isolated-community bookkeeping (see digg_graph_params docs).
    if (loner_remaining == 0 && params.loner_block_start_p > 0.0 &&
        rand.bernoulli(params.loner_block_start_p)) {
      loner_remaining = params.loner_block_min_len +
                        rand.index(std::max<std::size_t>(
                            params.loner_block_max_len -
                                params.loner_block_min_len, 1));
    }
    const bool loner = loner_remaining > 0;
    if (loner) --loner_remaining;

    // Celebrity follows: preferential attachment with a uniform fraction.
    if (!loner) {
      std::unordered_set<node_id> chosen;
      while (chosen.size() < attach) {
        node_id target;
        if (rand.bernoulli(params.random_follow_ratio)) {
          target = static_cast<node_id>(rand.index(v));  // uniform older user
        } else {
          target = endpoints[rand.index(endpoints.size())];
        }
        if (target != v) chosen.insert(target);
      }
      for (node_id target : chosen) follow(v, target, /*preferential=*/true);

      // One extra follow of an early "celebrity" account.
      if (params.celebrity_pool > 0 &&
          rand.bernoulli(params.celebrity_follow_p)) {
        const auto pool = std::min<std::size_t>(params.celebrity_pool, v);
        if (pool > 0) {
          const auto target = static_cast<node_id>(rand.index(pool));
          if (target != v) follow(v, target, /*preferential=*/true);
        }
      }
    }

    // Community follows: peers who joined recently (id locality).
    const std::size_t window = std::min<std::size_t>(params.local_window, v);
    std::unordered_set<node_id> local;
    while (local.size() < std::min(params.local_links, window)) {
      const auto target =
          static_cast<node_id>(v - 1 - rand.index(window));
      if (target != v) local.insert(target);
    }
    for (node_id target : local) follow(v, target, /*preferential=*/false);
  }

  // Celebrity clique post-pass: the elite mutually follow each other.
  if (params.celebrity_count >= 2 && params.celebrity_clique_p > 0.0) {
    // Rank by in-degree accumulated so far (approximated by the
    // preferential pool: count endpoint occurrences).
    std::vector<std::size_t> occurrences(n, 0);
    for (node_id v : endpoints) ++occurrences[v];
    std::vector<node_id> ranked(n);
    for (std::size_t i = 0; i < n; ++i) ranked[i] = static_cast<node_id>(i);
    const std::size_t top = std::min(params.celebrity_count, n);
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(top),
                      ranked.end(), [&](node_id a, node_id c) {
                        return occurrences[a] > occurrences[c];
                      });
    for (std::size_t i = 0; i < top; ++i) {
      if (is_lurker[ranked[i]]) continue;  // lurkers never follow
      for (std::size_t j = 0; j < top; ++j) {
        if (i != j && rand.bernoulli(params.celebrity_clique_p))
          b.add_edge(ranked[i], ranked[j]);
      }
    }
  }
  return b.build();
}

}  // namespace dlm::graph
