#include "digg/simulator.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <unordered_set>

#include "digg/ipf.h"
#include "digg/target_curves.h"
#include "graph/generators.h"
#include "social/interest.h"

namespace dlm::digg {
namespace {

using social::story_id;
using social::timestamp;
using social::user_id;
using social::vote;

constexpr double seconds_per_hour_d = 3600.0;

/// Ranks nodes by follower count (in-degree) and returns the node holding
/// `rank` (0 = most followed).
user_id node_at_follower_rank(const graph::digraph& g, std::size_t rank) {
  std::vector<std::pair<std::size_t, user_id>> by_followers;
  by_followers.reserve(g.node_count());
  for (graph::node_id v = 0; v < g.node_count(); ++v)
    by_followers.emplace_back(g.in_degree(v), v);
  std::sort(by_followers.begin(), by_followers.end(), [](auto& a, auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  rank = std::min(rank, by_followers.size() - 1);
  return by_followers[rank].second;
}

/// Expected-voter marginal target curves for one surface: per group, the
/// expected cumulative voters at every hour (target density × group size).
/// targets[x][t-1] for group x (index 0 unused, empty).
std::vector<std::vector<double>> marginal_target_curves(
    const std::vector<group_target>& groups, const surface_params& surface,
    int horizon, const std::vector<std::size_t>& sizes, std::size_t n_groups) {
  std::vector<std::vector<double>> targets(n_groups + 1);
  for (std::size_t x = 1; x <= n_groups; ++x) {
    if (x - 1 >= groups.size() || x >= sizes.size() || sizes[x] == 0) continue;
    std::vector<double> curve = target_curve(groups[x - 1], surface, horizon);
    for (double& v : curve) v *= static_cast<double>(sizes[x]) / 100.0;
    targets[x] = std::move(curve);
  }
  return targets;
}

/// Interest partition with calibrated bin edges.
///
/// Both distance metrics slice the SAME vote stream, so the grand totals
/// must agree: Σ_g S_g·n_g(edges) ≈ Σ_h (hop targets) = expected story
/// votes.  The paper never specifies its "interest ranges", so the edges
/// are a free calibration knob: starting from equal-width bins over the
/// robust distance range, the inner bins are stretched by a factor α
/// (bisected) until the identity holds.
social::distance_partition calibrated_interest_partition(
    const std::vector<double>& distances, user_id initiator,
    const story_preset& preset, int /*horizon*/, double rows_total,
    std::size_t n_groups) {
  // Robust distance range (0.5th percentile .. max) over non-source users.
  std::vector<double> sorted;
  sorted.reserve(distances.size());
  for (user_id u = 0; u < distances.size(); ++u) {
    if (u != initiator) sorted.push_back(distances[u]);
  }
  std::sort(sorted.begin(), sorted.end());
  const double lo = sorted[static_cast<std::size_t>(
      0.005 * static_cast<double>(sorted.size() - 1))];
  const double hi = sorted.back();

  // Saturation levels per group (fraction of the group that ever votes).
  std::vector<double> level(n_groups, 0.0);
  for (std::size_t g = 0; g < n_groups && g < preset.interest_groups.size();
       ++g) {
    level[g] = preset.interest_groups[g].saturation / 100.0;
  }

  // Power-law warp keeps all bins non-degenerate: β = 1 is equal width,
  // β > 1 widens the inner (high-affinity) bins.
  const auto edges_for = [&](double beta) {
    std::vector<double> edges(n_groups);
    for (std::size_t k = 0; k < n_groups; ++k) {
      const double frac = std::pow(
          static_cast<double>(k + 1) / static_cast<double>(n_groups),
          1.0 / beta);
      edges[k] = lo + (hi - lo) * frac;
    }
    edges.back() = std::max(edges.back(), hi);
    return edges;
  };
  const auto total_for = [&](double alpha) {
    const social::interest_grouping grouping =
        social::group_distances_with_edges(distances, initiator,
                                           edges_for(alpha));
    double total = 0.0;
    for (std::size_t g = 1; g <= n_groups; ++g)
      total += level[g - 1] * static_cast<double>(grouping.sizes[g]);
    return total;
  };

  // Bisect the smallest warp β whose total reaches the hop total (the
  // total is non-decreasing in β: wider inner bins shift users into
  // higher-propensity groups).
  double a_lo = 0.3, a_hi = 10.0;
  if (total_for(a_hi) < rows_total) {
    a_lo = a_hi;  // cannot reach: take the widest bins, IPF rescales rest
  } else {
    for (int it = 0; it < 48; ++it) {
      const double mid = 0.5 * (a_lo + a_hi);
      if (total_for(mid) >= rows_total) {
        a_hi = mid;
      } else {
        a_lo = mid;
      }
    }
    a_lo = a_hi;
  }

  const social::interest_grouping grouping =
      social::group_distances_with_edges(distances, initiator,
                                         edges_for(a_lo));
  social::distance_partition part;
  part.metric = social::distance_metric::shared_interests;
  part.group_of = grouping.group_of;
  part.sizes = grouping.sizes;
  return part;
}

/// Samples votes for one flagship story so the realized density surfaces
/// match the preset's targets under both metrics: IPF for the eventual
/// vote probabilities, stratified (low-noise) sampling of voters and vote
/// times, hop-group time distributions taking priority (the hop metric
/// carries the paper's headline experiments).
std::vector<vote> sample_flagship_story(
    const story_preset& preset, story_id story, user_id initiator,
    timestamp submit, const social::distance_partition& hops,
    const social::distance_partition& interests, int horizon,
    num::rng& rand) {
  const std::size_t n_users = hops.group_of.size();
  const int max_hop = std::min<int>(hops.max_distance(),
                                    static_cast<int>(preset.hop_groups.size()));
  const int max_int =
      std::min<int>(interests.max_distance(),
                    static_cast<int>(preset.interest_groups.size()));
  if (max_hop < 1 || max_int < 1)
    throw std::invalid_argument("sample_flagship_story: degenerate partitions");

  // --- Contingency table: rows = hop group (0 = outside the modelled hop
  // range, incl. unreachable users), cols = interest group 1..max_int.
  const auto rows = static_cast<std::size_t>(max_hop) + 1;
  const auto cols = static_cast<std::size_t>(max_int);
  std::vector<std::vector<std::size_t>> cell(rows,
                                             std::vector<std::size_t>(cols, 0));
  std::vector<std::vector<std::vector<user_id>>> members(
      rows, std::vector<std::vector<user_id>>(cols));
  const auto row_of = [&](user_id u) -> int {
    const int h = hops.group_of[u];
    return (h >= 1 && h <= max_hop) ? h : 0;
  };
  for (user_id u = 0; u < n_users; ++u) {
    if (u == initiator) continue;
    const int g = interests.group_of[u];
    if (g < 1 || g > max_int) continue;
    const auto r = static_cast<std::size_t>(row_of(u));
    const auto c = static_cast<std::size_t>(g - 1);
    ++cell[r][c];
    members[r][c].push_back(u);
  }

  // --- Marginal target curves (expected cumulative voters per hour).
  const std::vector<std::vector<double>> hop_curves = marginal_target_curves(
      preset.hop_groups, preset.hop_surface, horizon, hops.sizes,
      static_cast<std::size_t>(max_hop));

  // Interest columns follow the story's total-votes clock (the hop side)
  // raised to the group's clock_power: the same events sliced two ways
  // must share one grand total at EVERY hour, and W(t)^γ injects the
  // per-group idiosyncrasies (γ < 1 ⇒ front-loaded, slow late growth —
  // Table II's anomalous distance-5 row).
  std::vector<double> clock(static_cast<std::size_t>(horizon), 0.0);
  for (const auto& curve : hop_curves) {
    for (std::size_t t = 0; t < curve.size(); ++t) clock[t] += curve[t];
  }
  if (clock.back() <= 0.0)
    throw std::invalid_argument("sample_flagship_story: empty hop targets");
  for (double& v : clock) v /= clock[clock.size() - 1];

  std::vector<std::vector<double>> int_curves(
      static_cast<std::size_t>(max_int) + 1);
  for (int g = 1; g <= max_int; ++g) {
    const group_target& target =
        preset.interest_groups[static_cast<std::size_t>(g - 1)];
    const auto size =
        static_cast<double>(interests.sizes[static_cast<std::size_t>(g)]);
    if (size == 0.0) continue;
    std::vector<double> curve(static_cast<std::size_t>(horizon));
    for (std::size_t t = 0; t < curve.size(); ++t)
      curve[t] = size * target.saturation / 100.0 *
                 std::pow(clock[t], target.clock_power);
    int_curves[static_cast<std::size_t>(g)] = std::move(curve);
  }

  std::size_t outside_users = 0;
  for (std::size_t g = 0; g < cols; ++g) outside_users += cell[0][g];

  // --- Hourly IPF: at every hour t, rake the expected cumulative-votes
  // table V[h][g](t) so BOTH marginals' time profiles hold at once.  The
  // same story sliced by hops and by interests shows different growth
  // clocks in the real data purely through cross-correlations (who votes
  // early); hourly raking reproduces exactly that.  Row 0 ("outside the
  // modelled hop range") absorbs the grand-total imbalance; when the
  // interest total undershoots, interest targets are rescaled up
  // (shape preserved — DESIGN.md §3).
  const auto h_idx = [](int t) { return static_cast<std::size_t>(t - 1); };
  std::vector<std::vector<std::vector<double>>> cumulative(
      static_cast<std::size_t>(horizon),
      std::vector<std::vector<double>>(rows, std::vector<double>(cols, 0.0)));
  for (int t = 1; t <= horizon; ++t) {
    std::vector<double> row_target(rows, 0.0);
    double in_rows_total = 0.0;
    for (int h = 1; h <= max_hop; ++h) {
      const auto& curve = hop_curves[static_cast<std::size_t>(h)];
      if (!curve.empty()) {
        row_target[static_cast<std::size_t>(h)] = curve[h_idx(t)];
        in_rows_total += curve[h_idx(t)];
      }
    }
    std::vector<double> col_target(cols, 0.0);
    double col_total = 0.0;
    for (int g = 1; g <= max_int; ++g) {
      const auto& curve = int_curves[static_cast<std::size_t>(g)];
      if (!curve.empty()) {
        col_target[static_cast<std::size_t>(g - 1)] = curve[h_idx(t)];
        col_total += curve[h_idx(t)];
      }
    }
    double outside = col_total - in_rows_total;
    if (outside < 0.0 && col_total > 0.0) {
      const double scale = in_rows_total / col_total;
      for (double& v : col_target) v *= scale;
      outside = 0.0;
    }
    row_target[0] = std::min(outside, static_cast<double>(outside_users));

    ipf_result ipf = fit_vote_probabilities(cell, row_target, col_target,
                                            /*max_iterations=*/300,
                                            /*tolerance=*/1e-8,
                                            /*total_tolerance=*/20.0);
    // Row-exact rebalance: the hop marginals carry the headline tables.
    for (std::size_t h = 0; h < rows; ++h) {
      double expected = 0.0;
      for (std::size_t g = 0; g < cols; ++g)
        expected += ipf.probability[h][g] * static_cast<double>(cell[h][g]);
      if (expected <= 0.0) continue;
      const double factor = row_target[h] / expected;
      for (std::size_t g = 0; g < cols; ++g)
        ipf.probability[h][g] =
            std::clamp(ipf.probability[h][g] * factor, 0.0, 1.0);
    }
    for (std::size_t h = 0; h < rows; ++h) {
      for (std::size_t g = 0; g < cols; ++g) {
        double v = ipf.probability[h][g] * static_cast<double>(cell[h][g]);
        // Cumulative votes cannot decrease hour over hour.
        if (t > 1) v = std::max(v, cumulative[h_idx(t) - 1][h][g]);
        cumulative[h_idx(t)][h][g] = std::min(v, static_cast<double>(cell[h][g]));
      }
    }
  }

  // --- Stratified sampling: per cell, a deterministic voter count (the
  // rounded expectation at the horizon) and stratified time quantiles
  // drawn from the cell's own raked cumulative curve.  This suppresses
  // the binomial noise that would otherwise swamp the accuracy tables for
  // groups of a few hundred users; *which* users vote stays random.
  std::vector<vote> votes;
  votes.push_back({initiator, story, submit});
  std::vector<double> cell_curve(static_cast<std::size_t>(horizon));
  for (std::size_t h = 0; h < rows; ++h) {
    double carry = 0.0;  // per-row rounding carry keeps row totals exact
    for (std::size_t g = 0; g < cols; ++g) {
      const std::size_t n_cell = cell[h][g];
      if (n_cell == 0) continue;
      for (int t = 1; t <= horizon; ++t)
        cell_curve[h_idx(t)] = cumulative[h_idx(t)][h][g];
      const double expected = cell_curve.back() + carry;
      auto m = static_cast<std::size_t>(std::llround(expected));
      m = std::min(m, n_cell);
      carry = expected - static_cast<double>(m);
      if (m == 0) continue;

      const std::vector<std::size_t> picks =
          rand.sample_without_replacement(n_cell, m);
      const vote_time_distribution dist(cell_curve);

      // Stratified quantiles in shuffled order: the k-th voter lands in
      // stratum k of the cell's cumulative curve.
      std::vector<double> quantiles(m);
      for (std::size_t k = 0; k < m; ++k)
        quantiles[k] = (static_cast<double>(k) + rand.uniform()) /
                       static_cast<double>(m);
      rand.shuffle(quantiles);

      for (std::size_t k = 0; k < m; ++k) {
        const user_id u = members[h][g][picks[k]];
        const double tau = dist.invert(quantiles[k]);
        // At least one second after submission: the initiator is always
        // strictly the first voter.
        const auto offset = std::max<timestamp>(
            1, static_cast<timestamp>(std::llround(tau * seconds_per_hour_d)));
        votes.push_back({u, story, submit + offset});
      }
    }
  }
  return votes;
}

}  // namespace

topic_model make_topic_model(std::size_t users, std::size_t clusters,
                             num::rng& rand) {
  if (clusters == 0)
    throw std::invalid_argument("make_topic_model: clusters == 0");
  topic_model model;
  model.clusters = clusters;
  model.memberships.resize(users);
  for (std::size_t u = 0; u < users; ++u) {
    const std::size_t count = 1 + rand.index(3);  // 1..3 clusters
    std::unordered_set<std::uint32_t> chosen;
    while (chosen.size() < std::min(count, clusters))
      chosen.insert(static_cast<std::uint32_t>(rand.index(clusters)));
    model.memberships[u].assign(chosen.begin(), chosen.end());
    std::sort(model.memberships[u].begin(), model.memberships[u].end());
  }
  return model;
}

std::vector<vote> background_corpus(const topic_model& topics,
                                    std::size_t n_stories,
                                    story_id first_story,
                                    std::span<const user_id> vips,
                                    std::size_t vip_min_history,
                                    const corpus_params& params,
                                    num::rng& rand) {
  const std::size_t users = topics.memberships.size();
  if (users == 0) return {};

  // Cluster → member list and per-user activity (heavy-tailed: a few
  // dedicated diggers vote on a lot, matching crawled OSN behaviour).
  std::vector<std::vector<user_id>> members(topics.clusters);
  for (std::size_t u = 0; u < users; ++u) {
    for (std::uint32_t c : topics.memberships[u])
      members[c].push_back(static_cast<user_id>(u));
  }
  std::vector<double> activity(users);
  for (std::size_t u = 0; u < users; ++u)
    activity[u] = std::min(rand.pareto(1.0, 1.4), 60.0);

  // Story → cluster assignment (round-robin keeps clusters balanced) and
  // submission times across the collection month.
  const timestamp month_seconds = 30ull * 24 * 3600;
  std::vector<std::size_t> story_cluster(n_stories);
  std::vector<timestamp> story_submit(n_stories);
  std::vector<std::vector<story_id>> cluster_stories(topics.clusters);
  for (std::size_t s = 0; s < n_stories; ++s) {
    story_cluster[s] = (s + rand.index(topics.clusters)) % topics.clusters;
    story_submit[s] = static_cast<timestamp>(
        rand.uniform(0.0, static_cast<double>(month_seconds)));
    cluster_stories[story_cluster[s]].push_back(
        static_cast<story_id>(first_story + s));
  }

  // Total corpus volume: dense enough that same-cluster users share a
  // substantial fraction of their histories — otherwise every Jaccard
  // distance collapses to ≈1 and the shared-interest metric is useless.
  const double total_votes =
      static_cast<double>(users) * params.mean_user_activity;
  std::vector<double> story_weight(n_stories);
  double weight_sum = 0.0;
  for (std::size_t s = 0; s < n_stories; ++s) {
    story_weight[s] = std::min(rand.pareto(1.0, 1.1), 40.0);
    weight_sum += story_weight[s];
  }

  std::vector<vote> votes;
  votes.reserve(static_cast<std::size_t>(total_votes));
  for (std::size_t s = 0; s < n_stories; ++s) {
    const auto story = static_cast<story_id>(first_story + s);
    const std::size_t cluster = story_cluster[s];
    if (members[cluster].empty()) continue;

    const auto target_votes = static_cast<std::size_t>(
        std::min(total_votes * story_weight[s] / weight_sum,
                 0.9 * static_cast<double>(members[cluster].size())));

    // Activity-weighted voters from the topic cluster, uniform front-page
    // browsers otherwise.
    std::vector<double> weights;
    weights.reserve(members[cluster].size());
    for (user_id u : members[cluster]) weights.push_back(activity[u]);

    for (std::size_t k = 0; k < target_votes; ++k) {
      const user_id u =
          rand.bernoulli(params.cluster_affinity)
              ? members[cluster][rand.weighted_index(weights)]
              : static_cast<user_id>(rand.index(users));
      const auto offset = static_cast<timestamp>(
          rand.uniform(0.0, 72.0) * seconds_per_hour_d);
      votes.push_back({u, story, story_submit[s] + offset});
    }
  }

  // VIP guarantee: flagship initiators need a substantial vote history or
  // shared-interest distance to them is meaningless.
  for (user_id vip : vips) {
    if (vip >= users) continue;
    std::vector<story_id> candidates;
    for (std::uint32_t c : topics.memberships[vip]) {
      candidates.insert(candidates.end(), cluster_stories[c].begin(),
                        cluster_stories[c].end());
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    rand.shuffle(candidates);
    const std::size_t take = std::min(vip_min_history, candidates.size());
    for (std::size_t k = 0; k < take; ++k) {
      const auto offset = static_cast<timestamp>(
          rand.uniform(0.0, 72.0) * seconds_per_hour_d);
      const auto idx = static_cast<std::size_t>(candidates[k] - first_story);
      votes.push_back({vip, candidates[k], story_submit[idx] + offset});
    }
  }
  return votes;
}

digg_dataset make_dataset(const scenario_config& config) {
  num::rng rand(config.seed);

  // 1. Follower graph.
  graph::digraph followers = graph::digg_follower_graph(config.graph, rand);
  const std::size_t users = followers.node_count();
  const std::size_t n_flagship = config.stories.size();
  const std::size_t n_stories = n_flagship + config.background_stories;

  // 2. Flagship initiators (needed before the corpus: they get VIP vote
  // histories so interest distance to them is informative).
  std::vector<user_id> initiators;
  initiators.reserve(n_flagship);
  for (const story_preset& preset : config.stories)
    initiators.push_back(
        node_at_follower_rank(followers, preset.initiator_rank));

  // 3. Background corpus → vote histories / interest profiles.
  const topic_model topics =
      make_topic_model(users, config.topic_clusters, rand);
  const std::size_t vip_history =
      std::max<std::size_t>(10, config.background_stories / 12);
  corpus_params corpus;
  corpus.mean_user_activity = config.corpus_mean_activity;
  std::vector<vote> bg_votes = background_corpus(
      topics, config.background_stories, static_cast<story_id>(n_flagship),
      initiators, vip_history, corpus, rand);

  // Background-only network for computing interest partitions (the
  // flagship votes must not influence the grouping they are sampled from).
  social::social_network_builder bg_builder(followers, n_stories);
  for (const vote& v : bg_votes) bg_builder.add_vote(v.user, v.story, v.time);
  social::social_network bg_net = bg_builder.build();

  // 4. Flagship stories.
  digg_dataset out{
      social::social_network(graph::digraph(1), {}, 0), {}, {}, {}, {}, config};
  std::vector<vote> all_votes = std::move(bg_votes);

  const timestamp base_submit = 7ull * 24 * 3600;  // one week into the month
  for (std::size_t s = 0; s < n_flagship; ++s) {
    const story_preset& preset = config.stories[s];
    const auto story = static_cast<story_id>(s);
    const user_id initiator = initiators[s];

    social::distance_partition hops = social::partition_by_hops(
        bg_net, initiator, config.max_hops);

    // Expected story votes implied by the hop targets — the interest bin
    // edges are calibrated against this total (see
    // calibrated_interest_partition).
    const int max_hop = std::min<int>(
        hops.max_distance(), static_cast<int>(preset.hop_groups.size()));
    const std::vector<std::vector<double>> hop_curves = marginal_target_curves(
        preset.hop_groups, preset.hop_surface, config.horizon_hours,
        hops.sizes, static_cast<std::size_t>(max_hop));
    double rows_total = 0.0;
    for (const auto& curve : hop_curves) {
      if (!curve.empty()) rows_total += curve.back();
    }

    // Interest groups cover everyone (incl. front-page-only voters), so
    // their total is the hop total grossed up by the front-page share.
    const double share = std::clamp(config.front_page_vote_share, 0.0, 0.95);
    const double interest_total = rows_total / (1.0 - share);

    const std::vector<double> idistances =
        social::interest_distances_from(bg_net, initiator);
    social::distance_partition interests = calibrated_interest_partition(
        idistances, initiator, preset, config.horizon_hours, interest_total,
        config.interest_groups);

    const timestamp submit =
        base_submit + static_cast<timestamp>(s) * 36ull * 3600;
    std::vector<vote> story_votes = sample_flagship_story(
        preset, story, initiator, submit, hops, interests,
        config.horizon_hours, rand);

    all_votes.insert(all_votes.end(), story_votes.begin(), story_votes.end());
    out.flagship_ids.push_back(story);
    out.initiators.push_back(initiator);
    out.hop_partitions.push_back(std::move(hops));
    out.interest_partitions.push_back(std::move(interests));
  }

  // 5. Final network with every vote.
  social::social_network_builder builder(std::move(followers), n_stories);
  for (const vote& v : all_votes) builder.add_vote(v.user, v.story, v.time);
  out.network = builder.build();
  return out;
}

std::vector<vote> simulate_cascade(const graph::digraph& g,
                                   user_id initiator, story_id story,
                                   timestamp submit,
                                   const cascade_params& params,
                                   num::rng& rand) {
  if (initiator >= g.node_count())
    throw std::out_of_range("simulate_cascade: bad initiator");
  if (params.horizon_hours < 1)
    throw std::invalid_argument("simulate_cascade: horizon must be >= 1");

  const double horizon = static_cast<double>(params.horizon_hours);
  std::vector<bool> voted(g.node_count(), false);
  std::vector<bool> scheduled(g.node_count(), false);

  struct pending {
    double time_h;
    user_id user;
    bool operator>(const pending& other) const { return time_h > other.time_h; }
  };
  std::priority_queue<pending, std::vector<pending>, std::greater<>> queue;

  std::vector<vote> votes;
  bool promoted = false;

  const auto cast_vote = [&](user_id u, double t_h) {
    voted[u] = true;
    votes.push_back({u, story,
                     submit + static_cast<timestamp>(
                                  std::llround(t_h * seconds_per_hour_d))});
    // Channel 1: expose u's followers (paper: "after a user votes for a
    // news, all his followers are able to see and vote on the news").
    for (graph::node_id f : g.predecessors(u)) {
      if (voted[f] || scheduled[f]) continue;
      if (!rand.bernoulli(params.p_follow)) continue;
      const double delay = rand.exponential(params.response_rate);
      if (t_h + delay >= horizon) continue;
      scheduled[f] = true;
      queue.push({t_h + delay, f});
    }
  };

  cast_vote(initiator, 0.0);

  // Channel 2 bookkeeping: front-page arrivals start at promotion time.
  double promote_time = -1.0;
  const auto maybe_promote = [&](double now) {
    if (!promoted && votes.size() >= params.promote_threshold) {
      promoted = true;
      promote_time = now;
    }
  };
  maybe_promote(0.0);

  std::vector<double> arrivals;  // absolute hours, ascending
  std::size_t arrival_cursor = 0;
  bool arrivals_generated = false;

  const auto generate_arrivals = [&]() {
    // Inhomogeneous Poisson with rate λ(t) = rate · e^{−(t−t0)/decay} on
    // [t0, horizon] via inversion of the integrated rate.
    const double t0 = promote_time;
    const double mass =
        1.0 - std::exp(-(horizon - t0) / params.front_page_decay);
    const double expected =
        params.front_page_rate * params.front_page_decay * mass;
    const std::uint64_t n = rand.poisson(expected);
    arrivals.reserve(n);
    for (std::uint64_t k = 0; k < n; ++k) {
      const double u = rand.uniform();
      arrivals.push_back(t0 - params.front_page_decay *
                                  std::log(1.0 - u * mass));
    }
    std::sort(arrivals.begin(), arrivals.end());
  };

  while (true) {
    if (promoted && !arrivals_generated) {
      generate_arrivals();
      arrivals_generated = true;
    }
    const bool has_cascade = !queue.empty();
    const bool has_arrival = arrival_cursor < arrivals.size();
    if (!has_cascade && !has_arrival) break;

    const double cascade_t = has_cascade ? queue.top().time_h : horizon + 1.0;
    const double arrival_t =
        has_arrival ? arrivals[arrival_cursor] : horizon + 1.0;

    if (cascade_t <= arrival_t) {
      const pending p = queue.top();
      queue.pop();
      if (p.time_h >= horizon) continue;
      if (!voted[p.user]) cast_vote(p.user, p.time_h);
      maybe_promote(p.time_h);
    } else {
      ++arrival_cursor;
      if (arrival_t >= horizon) continue;
      const auto visitor = static_cast<user_id>(rand.index(g.node_count()));
      if (!voted[visitor] && rand.bernoulli(params.p_random)) {
        cast_vote(visitor, arrival_t);
        maybe_promote(arrival_t);
      }
    }
  }

  std::sort(votes.begin(), votes.end(), [](const vote& a, const vote& b) {
    return a.time < b.time;
  });
  return votes;
}

}  // namespace dlm::digg
