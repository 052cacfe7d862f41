#include "digg/target_curves.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dlm::digg {

double growth_curve::operator()(double t) const {
  return a * std::exp(-b * (t - 1.0)) + c;
}

std::vector<double> target_curve(const group_target& group,
                                 const surface_params& surface,
                                 int horizon_hours, int substeps) {
  if (horizon_hours < 1)
    throw std::invalid_argument("target_curve: horizon must be >= 1");
  if (substeps < 1)
    throw std::invalid_argument("target_curve: substeps must be >= 1");
  if (group.initial < 0.0 || group.saturation <= 0.0)
    throw std::invalid_argument("target_curve: bad group levels");

  const auto capacity = [&](double t) {
    return group.saturation +
           (surface.k_model - group.saturation) *
               std::exp(-(t - 1.0) / surface.tau_k);
  };
  // Clamped at zero: once the relaxing capacity K_x(t) falls below the
  // current density the curve plateaus — cumulative vote counts can never
  // decrease.
  const auto rhs = [&](double t, double i) {
    const double k = capacity(t);
    const double v = group.rate_mult * surface.rate(t) * i * (1.0 - i / k);
    return v > 0.0 ? v : 0.0;
  };

  std::vector<double> curve(static_cast<std::size_t>(horizon_hours));
  double i_val = group.initial;
  curve[0] = i_val;
  const double h = 1.0 / static_cast<double>(substeps);
  for (int hour = 1; hour < horizon_hours; ++hour) {
    double t = static_cast<double>(hour);  // integrating [hour, hour+1]
    for (int s = 0; s < substeps; ++s) {
      const double k1 = rhs(t, i_val);
      const double k2 = rhs(t + 0.5 * h, i_val + 0.5 * h * k1);
      const double k3 = rhs(t + 0.5 * h, i_val + 0.5 * h * k2);
      const double k4 = rhs(t + h, i_val + h * k3);
      i_val += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
      t += h;
    }
    // Monotonize against numerical wiggle at the clamp boundary.
    i_val = std::max(i_val, curve[static_cast<std::size_t>(hour - 1)]);
    curve[static_cast<std::size_t>(hour)] = i_val;
  }
  return curve;
}

vote_time_distribution::vote_time_distribution(
    const std::vector<double>& curve) {
  if (curve.empty())
    throw std::invalid_argument("vote_time_distribution: empty curve");
  knots_.reserve(curve.size() + 1);
  knots_.push_back(0.0);
  double prev = 0.0;
  for (double v : curve) {
    if (v < prev)
      throw std::invalid_argument(
          "vote_time_distribution: curve must be non-decreasing");
    knots_.push_back(v);
    prev = v;
  }
  if (knots_.back() <= 0.0)
    throw std::invalid_argument("vote_time_distribution: curve is flat zero");
}

double vote_time_distribution::invert(double u) const {
  if (u < 0.0) u = 0.0;
  if (u >= 1.0) u = std::nextafter(1.0, 0.0);
  const double target = u * knots_.back();
  // Find the knot interval containing `target` (knots_ is non-decreasing).
  std::size_t hi = 1;
  while (hi < knots_.size() - 1 && knots_[hi] < target) ++hi;
  const double lo_v = knots_[hi - 1];
  const double hi_v = knots_[hi];
  const double frac = (hi_v > lo_v) ? (target - lo_v) / (hi_v - lo_v) : 1.0;
  return static_cast<double>(hi - 1) + frac;
}

}  // namespace dlm::digg
