// High-level DL prediction pipeline (paper §III.C).
//
// Wraps the full workflow: take the densities observed at integer
// distances during the first hour, build φ by clamped cubic spline,
// solve the DL equation forward, and read predictions back at integer
// distances — the paper's "given the initial spreading phase of a story,
// predict the density at distance x and time t".
#pragma once

#include <span>
#include <vector>

#include "core/dl_parameters.h"
#include "core/dl_solver.h"
#include "core/initial_condition.h"

namespace dlm::core {

/// A fitted/predicting DL model instance for one story.
class dl_model {
 public:
  /// `observed_initial[i]` is the density at distance x_min + i observed
  /// at time `t0` (hour 1 in the paper).  The spatial domain is
  /// [params.x_min, params.x_max]; observations must cover it (their count
  /// must equal x_max − x_min + 1 for integer-spaced observations).
  /// The model solves forward to `t_max` immediately.
  dl_model(dl_parameters params, std::span<const double> observed_initial,
           double t0 = 1.0, double t_max = 50.0,
           dl_solver_options options = {});

  /// The φ a dl_model builds from integer-distance observations: clamped
  /// cubic spline through (x_min + i, observed_initial[i]).  Exposed so
  /// batch callers (the sweep adapter) can build the same initial
  /// condition once and hand it to many solve_requests.  Throws when the
  /// observation count does not cover [x_min, x_max].
  [[nodiscard]] static initial_condition build_initial(
      const dl_parameters& params, std::span<const double> observed_initial);

  /// Predicted density at integer distance x (x_min ≤ x ≤ x_max), time t.
  [[nodiscard]] double predict(int x, double t) const;

  /// Predicted densities at all integer distances at time t.
  [[nodiscard]] std::vector<double> predict_profile(double t) const;

  [[nodiscard]] const dl_parameters& parameters() const noexcept {
    return params_;
  }
  [[nodiscard]] const initial_condition& phi() const noexcept { return phi_; }
  [[nodiscard]] const dl_solution& solution() const noexcept {
    return solution_;
  }
  [[nodiscard]] double t0() const noexcept { return t0_; }
  [[nodiscard]] double t_max() const noexcept { return t_max_; }

 private:
  dl_parameters params_;
  double t0_;
  double t_max_;
  initial_condition phi_;
  dl_solution solution_;
};

}  // namespace dlm::core
