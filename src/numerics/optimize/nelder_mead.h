// Nelder–Mead derivative-free simplex minimizer.
//
// Calibration of the DL model (diffusion rate d, capacity K, growth-rate
// parameters) minimizes a least-squares objective over the early observation
// window; the objective goes through a PDE solve, so derivative-free search
// is the right tool.
#pragma once

#include <span>
#include <vector>

namespace dlm::num {

/// Options controlling the Nelder–Mead iteration.
struct nelder_mead_options {
  std::size_t max_iterations = 2000;
  double f_tolerance = 1e-10;   ///< stop when simplex f-spread is below this
  double x_tolerance = 1e-10;   ///< stop when simplex diameter is below this
  double initial_step = 0.1;    ///< per-coordinate displacement of the
                                ///< initial simplex (relative when the
                                ///< coordinate is nonzero, absolute otherwise)
  // Standard reflection/expansion/contraction/shrink coefficients.
  double alpha = 1.0;
  double gamma = 2.0;
  double rho = 0.5;
  double sigma = 0.5;
};

/// Result of a finished search.
struct nelder_mead_result {
  std::vector<double> x;       ///< best parameter vector found
  double f_value = 0.0;        ///< objective at `x`
  std::size_t iterations = 0;  ///< iterations performed
  std::size_t evaluations = 0; ///< objective evaluations
  bool converged = false;
};

/// Nelder–Mead as an ask/tell stepper: ask() names the one point the
/// search wants evaluated next, tell() hands back its value.  A caller
/// that advances many searches at once (fit::calibrate_dl's lockstep
/// lanes) steps each of them one point per round and evaluates the
/// round's points together; a single search runs to the end with
/// `while (!s.done()) s.tell(f(s.ask()));`.  The sequence of asked
/// points — and therefore the result — depends only on the told values,
/// never on how or when they were computed.
class nelder_mead {
 public:
  /// Starts a search at `x0`.  Empty `lower`/`upper` → unconstrained;
  /// otherwise every asked point is first clamped into [lower, upper]
  /// (projection method).  Throws std::invalid_argument for an empty
  /// starting point, bounds whose sizes differ from x0's, or a
  /// lower[i] > upper[i] (or NaN) bound.
  nelder_mead(std::span<const double> x0, const nelder_mead_options& options,
              std::span<const double> lower = {},
              std::span<const double> upper = {});

  /// True once the search has converged or run out of iterations.
  [[nodiscard]] bool done() const noexcept { return stage_ == stage::done; }

  /// The next point to evaluate; valid until the next tell().  Must not
  /// be called once done().
  [[nodiscard]] std::span<const double> ask() const noexcept { return probe_; }

  /// Records the objective value at the point ask() returned and
  /// advances to the next point (or to done()).  Throws std::logic_error
  /// once done().
  void tell(double value);

  /// Best vertex and counters; meaningful once done().
  [[nodiscard]] nelder_mead_result result() const;

 private:
  struct vertex {
    std::vector<double> x;
    double f = 0.0;
  };
  enum class stage { init, reflect, expand, contract, shrink, done };

  void project(std::vector<double>& x) const;
  /// Starts the next iteration (sort, convergence test, reflection
  /// point) or ends the search.
  void next_iteration();

  nelder_mead_options opt_;
  std::vector<double> lower_, upper_;
  std::vector<double> x0_;
  std::vector<vertex> simplex_;
  std::vector<double> centroid_;
  std::vector<double> xr_;  ///< reflected point (projected once told)
  double fr_ = 0.0;
  std::vector<double> probe_;
  stage stage_ = stage::init;
  std::size_t index_ = 0;      ///< vertex being shrunk
  std::size_t iteration_ = 0;  ///< iterations started
  std::size_t evaluations_ = 0;
  nelder_mead_result result_;
};

}  // namespace dlm::num
