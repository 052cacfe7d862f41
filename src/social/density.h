// The spatio-temporal density field I(x, t) (paper §II.B.1).
//
// I(x, t) = percentage of the users in distance group U_x that have voted
// for the story by hour t.  Every figure and table in the paper's
// evaluation is a view over this surface, so it is the pivotal data
// structure of the reproduction.  Densities are *percentages* (0–100): the
// paper's figures show values up to 60 with carrying capacities K = 25 and
// K = 60, which only makes sense on a percent scale (see DESIGN.md §4).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "social/distance.h"
#include "social/network.h"
#include "social/story.h"

namespace dlm::social {

/// Dense matrix of densities over (hour, distance group).
class density_field {
 public:
  /// Builds the field for one story.
  ///
  /// `partition` assigns every user to a distance group; `horizon_hours`
  /// is the number of hourly snapshots (t = 1..horizon, measured from
  /// story submission; the vote at t=0 belongs to snapshot t=1, matching
  /// the paper's "data collected at the first hour" initial condition).
  /// Distance groups with zero members yield density 0.
  density_field(const social_network& net, story_id story,
                const distance_partition& partition, int horizon_hours);

  /// Number of hourly snapshots (t runs 1..hours()).
  [[nodiscard]] int hours() const noexcept { return horizon_; }

  /// Largest distance group index with at least one member.
  [[nodiscard]] int max_distance() const noexcept { return max_distance_; }

  /// Density (percent, 0–100) at distance group x (1-based) and hour t
  /// (1-based).  Throws std::out_of_range outside the surface.
  [[nodiscard]] double at(int x, int t) const;

  /// Time series I(x, ·) for a fixed distance group, hours 1..hours().
  [[nodiscard]] std::vector<double> series_at_distance(int x) const;

  /// Members of group x (the density denominator).
  [[nodiscard]] std::size_t group_size(int x) const;

  /// True if I(x, ·) is non-decreasing for every x — votes are cumulative,
  /// so a correctly built field always satisfies this.
  [[nodiscard]] bool is_monotone() const;

  /// The distance metric the field was built with.
  [[nodiscard]] distance_metric metric() const noexcept { return metric_; }

 private:
  [[nodiscard]] std::size_t index(int x, int t) const;

  int horizon_ = 0;
  int max_distance_ = 0;
  distance_metric metric_ = distance_metric::friendship_hops;
  std::vector<std::size_t> group_sizes_;  ///< index 0 unused (source)
  std::vector<double> density_;           ///< percentages, (x,t) matrix
};

}  // namespace dlm::social
