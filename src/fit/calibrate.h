// DL parameter calibration from the early observation window.
//
// Coarse lattice scan (grid search) followed by bounded Nelder–Mead
// refinement over (d, K, a, b, c) where r(t) = a·e^{−b(t−1)} + c — the
// paper's growth-rate family.  The paper tunes by hand; this automates the
// same procedure and is reachable either directly (this header) or as the
// engine workload behind the "calibrate" growth-rate spec
// (engine::calibrate_scenarios), which memoizes whole fits in a solve
// cache and fans the lattice out over the engine thread pool via the
// run_batch hook below.  The search itself keeps no memo: every point it
// asks for is solved.
//
// The fit is an ask/tell search: it asks for the whole lattice, then for
// one Nelder–Mead point at a time.  Several fits run in lockstep — one
// round at a time, each round's PDE solves handed to core::solve_dl as
// one span of lanes — and every fit's probe sequence and result are
// bitwise those of fitting it alone; a single fit is simply the one-lane
// case.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/dl_parameters.h"
#include "fit/objective.h"

namespace dlm::fit {

/// Box bounds and switches for calibration.
struct calibration_options {
  double d_min = 0.0, d_max = 0.5;
  double k_min = 1.0, k_max = 100.0;
  double a_min = 0.0, a_max = 4.0;   ///< rate amplitude
  double b_min = 0.1, b_max = 4.0;   ///< rate decay
  double c_min = 0.0, c_max = 1.0;   ///< rate floor
  bool fit_rate = true;   ///< false: keep the rate from `start`, fit (d, K)
  /// > 0: additionally fit that many per-group rate multipliers — the
  /// optimizer vector grows to (d, K[, a, b, c], m_1..m_n) and the fitted
  /// rate becomes the separable field m(x)·base(t) anchored at
  /// start.x_min (paper §V; the engine's "calibrate-spatial" workload).
  /// The base is the fitted decay family when fit_rate, otherwise the
  /// rate carried by `start` — which must then be of separable form.
  /// The coarse lattice pins every multiplier at 1.0 (a lattice over n
  /// extra axes would grow exponentially); Nelder–Mead refines them
  /// inside [m_min, m_max].
  std::size_t spatial_groups = 0;
  double m_min = 0.2, m_max = 2.5;   ///< multiplier box bounds
  std::size_t coarse_steps = 4;  ///< lattice points per axis in the scan
  std::size_t refine_iterations = 600;  ///< Nelder–Mead iteration cap
  core::dl_solver_options solver{};

  /// Optional batch executor for rounds that need more than one solve
  /// call (the coarse lattice): receives one task per call and must run
  /// them all before returning (order free — each task owns its output
  /// slots).  Unset → the calls run in order on the calling thread.  The
  /// engine wires this to thread_pool::run_batch.  In a lockstep
  /// calibration the first problem's executor runs every round.
  std::function<void(std::vector<std::function<void()>>)> run_batch;
};

/// Calibration outcome.
struct calibration_result {
  core::dl_parameters params;  ///< best-fit parameters
  /// Raw optimizer vector behind `params`: (d, K[, a, b, c][, m_1..m_n])
  /// per calibration_options::fit_rate / spatial_groups — callers that
  /// need the fitted rate coefficients read them here, since
  /// core::growth_rate does not expose its constants.
  std::vector<double> x;
  double sse = 0.0;            ///< objective at the optimum
  std::size_t evaluations = 0; ///< objective evaluations (PDE solves)
};

/// The parameters optimizer vector `v` stands for: `base` with d, K and —
/// per options.fit_rate / spatial_groups — the fitted rate replaced.
/// calibration_result::params is this of calibration_result::x.
[[nodiscard]] core::dl_parameters params_from_vector(
    const core::dl_parameters& base, std::span<const double> v,
    const calibration_options& options);

/// Calibrates DL parameters against `window`, starting from `start`
/// (which also fixes x_min/x_max and, when !fit_rate, the rate function).
/// The one-lane case of the lockstep overload below.  Throws
/// std::runtime_error when every coarse-lattice probe scores +inf — no
/// parameter vector in the box solves — naming the first probe's
/// failure (fit::dl_sse_failure); a fit whose lattice has a finite best
/// succeeds, however many of its probes failed.
[[nodiscard]] calibration_result calibrate_dl(
    const observation_window& window, const core::dl_parameters& start,
    const calibration_options& options = {});

/// One fit of a lockstep calibration: the arguments of the overload
/// above.  `window` must outlive the calibrate_dl call.
struct calibration_problem {
  const observation_window* window = nullptr;
  core::dl_parameters start;
  calibration_options options;
};

/// Runs every problem's search in lockstep and returns the results in
/// problem order, each bitwise equal to calibrating that problem alone
/// (same probes, values, counters and fit).  Each round asks every
/// unfinished search for its points (a search asks for its whole lattice
/// first, then one Nelder–Mead point per round), solves them in
/// core::solve_dl calls of at most `width` probes (one call per round
/// when the round fits; more calls go through the first problem's
/// run_batch) and tells each search its values.  Throws like the single
/// overload; a failed lane throws as soon as its lattice round is told.
[[nodiscard]] std::vector<calibration_result> calibrate_dl(
    std::span<const calibration_problem> problems, std::size_t width);

}  // namespace dlm::fit
