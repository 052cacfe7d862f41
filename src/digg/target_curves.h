// Calibrated per-group density target curves.
//
// The real Digg 2009 crawl is unavailable (DESIGN.md §3), so the published
// density surfaces are regenerated from a parametric family fitted to the
// paper's figures: each distance group x follows a logistic growth with a
// time-decaying intrinsic rate and a capacity that relaxes from the DL
// model's K towards the group's observed saturation level S_x,
//
//   dI/dt = rate_mult_x · r(t) · I · (1 − I / K_x(t)),   I(1) = φ_x
//   K_x(t) = S_x + (K_model − S_x) · exp(−(t−1)/τ_K)
//   r(t)   = a · exp(−b (t−1)) + c                       (paper Eq. 7 family)
//
// Early on (t ≲ 5) the curve is DL-consistent (capacity ≈ K_model), which
// is what makes the paper's 6-hour prediction experiment work; at long
// horizons it saturates at S_x, matching Fig. 3/5.  `rate_mult_x` injects
// the per-group idiosyncrasies the paper observed (e.g. the slow
// interest-distance-5 group behind Table II's 40% accuracy row).
#pragma once

#include <cstddef>
#include <vector>

namespace dlm::digg {

/// Decaying growth-rate function r(t) = a·e^{−b(t−1)} + c (paper Eq. 7 is
/// a = 1.4, b = 1.5, c = 0.25).
struct growth_curve {
  double a = 1.4;
  double b = 1.5;
  double c = 0.25;

  [[nodiscard]] double operator()(double t) const;
};

/// Parameters of one distance group's target curve.
struct group_target {
  double initial = 1.0;     ///< φ_x: density (percent) at t = 1
  double saturation = 10.0; ///< S_x: density as t → ∞ (Fig. 3/5 plateau)
  double rate_mult = 1.0;   ///< group-specific multiplier on r(t)
  /// Interest-metric groups only: the group's density follows the story's
  /// total-votes clock raised to this power, density_g(t) = S_g·W(t)^γ
  /// (W = normalized cumulative votes).  γ = 1 tracks the story exactly;
  /// γ < 1 front-loads and slows later growth — the behaviour behind the
  /// paper's anomalous interest-distance-5 row (Table II).
  double clock_power = 1.0;
};

/// Parameters shared by all groups of one (story, metric) surface.
struct surface_params {
  growth_curve rate;        ///< story growth-rate function
  double k_model = 25.0;    ///< DL carrying capacity the early phase obeys
  double tau_k = 4.0;       ///< hours for K_x(t) to relax towards S_x
};

/// Density target curve for one group at hourly knots t = 1..horizon
/// (index 0 ↔ t = 1).  Integrated with RK4 at `substeps` per hour.
[[nodiscard]] std::vector<double> target_curve(const group_target& group,
                                               const surface_params& surface,
                                               int horizon_hours,
                                               int substeps = 32);

/// Vote-time sampling helper: piecewise-linear cumulative curve over
/// [0, horizon] hours built from a target curve (density 0 at t = 0,
/// curve[k] at t = k+1).  `invert(u)` maps u ∈ [0, 1] to the vote time in
/// hours whose cumulative share of the final density equals u.
class vote_time_distribution {
 public:
  explicit vote_time_distribution(const std::vector<double>& curve);

  /// Hours offset of a vote given uniform u in [0, 1).
  [[nodiscard]] double invert(double u) const;

  /// Final (t = horizon) cumulative density the curve reaches.
  [[nodiscard]] double final_density() const { return knots_.back(); }

 private:
  std::vector<double> knots_;  ///< cumulative density at t = 0, 1, ..., horizon
};

}  // namespace dlm::digg
