#include "social/density.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dlm::social {

density_field::density_field(const social_network& net, story_id story,
                             const distance_partition& partition,
                             int horizon_hours)
    : horizon_(horizon_hours), metric_(partition.metric) {
  if (horizon_hours < 1)
    throw std::invalid_argument("density_field: horizon must be >= 1 hour");
  if (partition.group_of.size() != net.user_count())
    throw std::invalid_argument("density_field: partition/network mismatch");

  max_distance_ = partition.max_distance();
  if (max_distance_ < 1)
    throw std::invalid_argument(
        "density_field: partition has no non-source groups");

  group_sizes_ = partition.sizes;
  group_sizes_.resize(static_cast<std::size_t>(max_distance_) + 1, 0);

  const auto votes = net.votes_for(story);
  if (votes.empty())
    throw std::invalid_argument("density_field: story has no votes");
  const timestamp submitted = votes.front().time;

  const std::size_t cells =
      static_cast<std::size_t>(max_distance_) * static_cast<std::size_t>(horizon_);
  std::vector<std::size_t> counts(cells, 0);  // cumulative votes, (x,t)
  density_.assign(cells, 0.0);

  // Each vote lands in the snapshot of the hour it happened: hour index
  // t = floor(hours_since) + 1 clamped to [1, horizon].  Later snapshots
  // accumulate earlier votes (cumulative sum below).
  for (const vote& v : votes) {
    const int group = partition.group_of[v.user];
    if (group < 1 || group > max_distance_) continue;  // source/unreachable
    const double h = hours_since(submitted, v.time);
    if (h < 0.0) continue;
    const int t = std::min(static_cast<int>(std::floor(h)) + 1, horizon_);
    ++counts[index(group, t)];
  }
  // Cumulative over time per distance row.
  for (int x = 1; x <= max_distance_; ++x) {
    std::size_t acc = 0;
    for (int t = 1; t <= horizon_; ++t) {
      acc += counts[index(x, t)];
      counts[index(x, t)] = acc;
      const std::size_t denom = group_sizes_[static_cast<std::size_t>(x)];
      density_[index(x, t)] =
          denom > 0 ? 100.0 * static_cast<double>(acc) /
                          static_cast<double>(denom)
                    : 0.0;
    }
  }
}

std::size_t density_field::index(int x, int t) const {
  if (x < 1 || x > max_distance_)
    throw std::out_of_range("density_field: distance out of range");
  if (t < 1 || t > horizon_)
    throw std::out_of_range("density_field: hour out of range");
  return static_cast<std::size_t>(x - 1) * static_cast<std::size_t>(horizon_) +
         static_cast<std::size_t>(t - 1);
}

double density_field::at(int x, int t) const { return density_[index(x, t)]; }

std::vector<double> density_field::series_at_distance(int x) const {
  std::vector<double> out(static_cast<std::size_t>(horizon_));
  for (int t = 1; t <= horizon_; ++t)
    out[static_cast<std::size_t>(t - 1)] = at(x, t);
  return out;
}

std::size_t density_field::group_size(int x) const {
  if (x < 1 || x > max_distance_)
    throw std::out_of_range("density_field::group_size: bad distance");
  return group_sizes_[static_cast<std::size_t>(x)];
}

bool density_field::is_monotone() const {
  for (int x = 1; x <= max_distance_; ++x) {
    for (int t = 2; t <= horizon_; ++t) {
      if (at(x, t) < at(x, t - 1)) return false;
    }
  }
  return true;
}

}  // namespace dlm::social
