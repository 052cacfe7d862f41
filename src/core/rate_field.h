// Spatio-temporal growth-rate fields r(x, t) for the DL equation.
//
// The paper's future work (§V) proposes letting the growth rate vary
// with both time *and* distance — motivated by the Table II distance-5
// anomaly, where one shared r(t) over-predicts the slow outermost
// interest group.  This module promotes that refinement to a typed,
// first-class field consumed by the main solver (all four schemes), the
// engine's rate-spec grammar and the calibration family.  Three families:
//
//  * temporal   — r(x, t) = r(t): a plain growth_rate lifted into the
//                 field (the implicit-conversion path every pre-existing
//                 call site takes);
//  * separable  — r(x, t) = m(x)·base(t): per-group multipliers anchored
//                 at integer distances, linearly interpolated between and
//                 clamped outside (the engine's "spatial:<base>|<m,...>"
//                 spec and the "calibrate-spatial" fit family);
//  * per-group  — one growth_rate per distance group, values *and* exact
//                 integrals linearly interpolated across groups (the
//                 "per-hop:<spec>;..." spec).
//
// Every family carries a canonical label (folded into slice fingerprints
// and cache keys) and an exact integral ∫ r(x, s) ds over [t0, t1] at
// fixed x, because the Strang-split solver's logistic substep consumes
// integrated rates.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/growth_rate.h"

namespace dlm::core {

/// A growth-rate field r(x, t).
class rate_field {
 public:
  /// Lifts a pure-temporal rate: r(x, t) = r(t) for every x.  Implicit on
  /// purpose — every API that took a growth_rate keeps working unchanged.
  rate_field(growth_rate temporal);  // NOLINT(google-explicit-constructor)

  /// Separable field r(x, t) = m(x)·base(t).  `multipliers[i]` applies at
  /// x = x_anchor + i; m(x) interpolates linearly between anchors and
  /// clamps to the nearest multiplier outside them (so a list shorter
  /// than the domain extends its last value to farther groups).
  /// Throws std::invalid_argument for an empty list or a negative /
  /// non-finite multiplier.
  static rate_field separable(growth_rate base, std::vector<double> multipliers,
                              double x_anchor = 1.0);

  /// Per-group table: `rates[i]` is the rate of the group at
  /// x = x_anchor + i; r(x, t) interpolates the group rates linearly in x
  /// (clamped outside), and integral() interpolates the groups' exact
  /// integrals with the same weights.  Throws on an empty table.
  static rate_field per_group(std::vector<growth_rate> rates,
                              double x_anchor = 1.0);

  /// r(x, t).
  [[nodiscard]] double operator()(double x, double t) const;

  /// ∫ r(x, s) ds over [t0, t1] at fixed x, exact for every family.
  /// Throws std::invalid_argument when t1 < t0.
  [[nodiscard]] double integral(double t0, double t1, double x) const;

  /// True unless the field is constant in x (the temporal family).
  [[nodiscard]] bool spatial() const noexcept;

  /// True when r(x, t) factors as m(x)·base(t) — the temporal (m ≡ 1) and
  /// separable families.  Solvers use this to hoist the spatial profile
  /// out of the time loop: one base evaluation + n multiplies per step.
  [[nodiscard]] bool separable_form() const noexcept;

  /// The temporal factor base(t) of a separable-form field.
  /// Throws std::logic_error for the per-group family.
  [[nodiscard]] const growth_rate& base() const;

  /// The spatial factor m(x) of a separable-form field (1 for temporal).
  /// Throws std::logic_error for the per-group family.
  [[nodiscard]] double modulation(double x) const;

  /// Canonical description: the wrapped label for temporal fields,
  /// "spatial(<base>|m=...)" / "per-hop(...)" for the spatial families.
  [[nodiscard]] const std::string& label() const noexcept { return label_; }

  /// r(x_i, t) for every x in `xs`, written to `out` (sizes must match).
  /// One base evaluation for separable-form fields.
  void profile(double t, std::span<const double> xs,
               std::span<double> out) const;

  /// ∫ r(x_i, s) ds over [t0, t1] for every x in `xs`, written to `out`.
  /// One base integral for separable-form fields.
  void integral_profile(double t0, double t1, std::span<const double> xs,
                        std::span<double> out) const;

  /// Allocation-free variants: the per-group family's one-value-per-group
  /// table lands in `scratch` (resized to the group count, capacity kept)
  /// instead of a fresh vector — the solver calls these once or twice per
  /// time step, so the plain overloads above would otherwise allocate in
  /// the hot loop.  Other families ignore `scratch`.
  void profile(double t, std::span<const double> xs, std::span<double> out,
               std::vector<double>& scratch) const;
  void integral_profile(double t0, double t1, std::span<const double> xs,
                        std::span<double> out,
                        std::vector<double>& scratch) const;

 private:
  enum class family { temporal, separable, per_group };

  rate_field() = default;

  /// Interpolation weights of x against the anchor lattice:
  /// indices (lo, hi) and the blend fraction in [0, 1].
  struct blend {
    std::size_t lo = 0;
    std::size_t hi = 0;
    double frac = 0.0;
  };
  [[nodiscard]] blend blend_at(double x, std::size_t count) const;

  family family_ = family::temporal;
  /// temporal/separable: exactly one entry (the base); per-group: one per
  /// group.
  std::vector<growth_rate> rates_;
  std::vector<double> multipliers_;  ///< separable only
  double x_anchor_ = 1.0;
  std::string label_;
};

}  // namespace dlm::core
