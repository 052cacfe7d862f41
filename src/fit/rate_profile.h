// Closed-form per-distance growth-rate multipliers (paper §V future work).
//
// The paper's Table II distance-5 anomaly — a single r(t) over-predicts
// the slow outermost interest group — motivates a growth rate that
// varies with distance as well as time.  `fit_rate_profile` estimates
// one multiplier per distance from an early observation window; feed the
// result to core::rate_field::separable to solve with r(x, t) =
// m(x)·base(t) on the main solver.
#pragma once

#include <span>
#include <vector>

#include "core/growth_rate.h"

namespace dlm::fit {

/// Per-distance rate multipliers recovered from an early window.
///
/// For each integer distance x with observations, estimates m(x) such
/// that the data's realized log-growth over [t0, t_obs] matches
/// m(x)·∫r(t)dt after logistic-braking correction:
///
///   m(x) = log(I_obs(x,t_obs)/I_obs(x,t0)) / ∫_{t0}^{t_obs} r(s)(1−Ī/K) ds
///
/// with Ī the window-average density.  Returns one non-negative
/// multiplier per observation (1 where the data shows no growth).
[[nodiscard]] std::vector<double> fit_rate_profile(
    std::span<const double> initial, std::span<const double> observed_at_tobs,
    const core::growth_rate& base_rate, double k, double t0, double t_obs);

}  // namespace dlm::fit
