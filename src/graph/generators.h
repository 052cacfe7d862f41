// Random graph generators.
//
// The Digg 2009 crawl is unavailable offline (see DESIGN.md §3), so the
// follower network substrate is generated synthetically.  `digg_follower_graph`
// is the production generator: preferential attachment (heavy-tailed
// in-degree, like real follower counts) with partial edge reciprocation,
// matching the qualitative structure reported for Digg.
#pragma once

#include <cstddef>

#include "graph/digraph.h"
#include "numerics/rng.h"

namespace dlm::graph {

/// Parameters of the synthetic Digg-like follower network.
///
/// Each arriving user creates `attach` preferential/uniform follows (the
/// hub structure: everyone follows a few celebrities) plus `local_links`
/// follows drawn from the `local_window` most recently arrived users (the
/// community structure: people follow peers who joined around the same
/// time).  The local links are what give the network hop distances out to
/// 8–10 like the crawled Digg graph (paper Fig. 2); a pure
/// preferential-attachment graph is ultra-small-world and collapses every
/// pair to ≤ 4 hops.
struct digg_graph_params {
  std::size_t users = 20000;       ///< number of accounts
  std::size_t attach = 2;          ///< preferential follows per arriving user
  std::size_t local_links = 4;     ///< community follows per arriving user
  std::size_t local_window = 150;  ///< "recently joined" pool size
  /// P(celebrity follows back): hubs rarely reciprocate, which keeps them
  /// information sinks rather than shortcuts (stretches hop distances the
  /// way the crawled graph shows in Fig. 2).
  double hub_reciprocation = 0.02;
  /// P(peer follows back) for community links: much higher, as between
  /// acquaintances.
  double local_reciprocation = 0.30;
  double random_follow_ratio = 0.20;  ///< fraction of preferential follows
                                      ///< that ignore degree (uniform)
  /// The most-followed `celebrity_count` accounts follow each other with
  /// probability `celebrity_clique_p` (added in a post-pass).  Popular
  /// submitters being embedded in a mutually-following elite is what puts
  /// the bulk of the network exactly 3 hops from a top initiator
  /// (initiator → elite friends → their follower clouds → the clouds'
  /// community), reproducing the paper's Fig. 2 peak.
  std::size_t celebrity_count = 900;
  double celebrity_clique_p = 0.15;
  /// Each arriving user additionally follows one uniform member of the
  /// earliest `celebrity_pool` accounts with this probability.  Gives top
  /// accounts follower counts in the hundreds-to-thousands (like top Digg
  /// submitters), which keeps the hop-1 density denominators statistically
  /// stable.
  double celebrity_follow_p = 0.6;
  std::size_t celebrity_pool = 60;
  /// Occasionally a contiguous block of arriving users forms an isolated
  /// community: no celebrity follows, only local ones.  Influence reaches
  /// the block's depths through member-to-member chains only, which
  /// populates the hop-6..10 tail of Fig. 2 (tiny but non-zero mass).
  double loner_block_start_p = 0.0005;  ///< per-user block start probability
  std::size_t loner_block_min_len = 400;
  std::size_t loner_block_max_len = 900;
  /// Fraction of users who follow NOBODY (they only browse the front
  /// page).  They can be followed but never reached through follow links,
  /// so they sit outside every hop group — mirroring the crawled data,
  /// where the hop-reachable set accounts for well under half of a top
  /// story's voters (the paper's Fig. 2/3 numbers integrate to ~10k votes
  /// while s1 had 24,099: the majority arrived via the front page).
  double lurker_ratio = 0.50;
};

/// Synthetic Digg follower graph; see `digg_graph_params`.
/// Edge (a, b) means "a follows b": b's votes are visible to a.
[[nodiscard]] digraph digg_follower_graph(const digg_graph_params& params,
                                          num::rng& rand);

}  // namespace dlm::graph
