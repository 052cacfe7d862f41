// The calibration workload of the batch engine.
//
// A sweep opts into calibration through the `rates` axis: a spec of the
// form
//
//   "calibrate"            fit (d, K, a, b, c) with r(t) = a·e^{−b(t−1)} + c
//   "calibrate:<H>"        same, fit window capped at hour H
//   "calibrate-fixed"      keep the slice's preset r(t); fit (d, K) only
//   "calibrate-fixed:<H>"  same, fit window capped at hour H
//   "calibrate-spatial"    fit (d, K) plus one rate multiplier per
//                          distance group: the solved rate is the
//                          separable field m(x)·preset(t) (paper §V)
//   "calibrate-spatial:<H>"  same, fit window capped at hour H
//
// runs fit::calibrate_dl on the scenario's early observation window —
// hours floor(t0)+1 .. H, where H defaults to the midpoint
// ceil((t0 + t_end)/2) of the evaluation window — before the scenario
// solves.  The fitted parameters are applied as (d, K) overrides plus a
// concrete resolved rate spec ("decay:<a>,<b>,<c>" or the preset name),
// compatible fits run in lockstep (calibrate_scenarios), the coarse
// calibration lattice fans out over the engine thread pool, and each
// finished fit is memoized in the solve cache as one small record, so a
// warm repeat of the fit is a lookup and no PDE solve.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/diffusion_model.h"
#include "engine/scenario.h"
#include "engine/solve_cache.h"
#include "engine/thread_pool.h"
#include "fit/calibrate.h"

namespace dlm::engine {

/// True for "calibrate" / "calibrate-fixed" / "calibrate-spatial" specs
/// (with or without the ":<hour>" suffix).  Purely syntactic — parse
/// errors surface later.
[[nodiscard]] bool is_calibrate_spec(const std::string& spec);

/// A parsed calibration spec, with the fit window resolved against a
/// concrete scenario.
struct calibrate_spec {
  bool fit_rate = true;  ///< false for "calibrate-fixed" / "-spatial"
  /// True for "calibrate-spatial": fit one per-group rate multiplier on
  /// top of the slice's preset r(t).
  bool fit_spatial = false;
  /// Last observed hour used for fitting (inclusive); always in
  /// [floor(t0)+1, min(floor(t_end), horizon)].
  int fit_end = 0;
};

/// Parses `spec` and resolves the fit window for a scenario with the
/// given t0/t_end on a slice with `horizon_hours`.  Throws
/// std::invalid_argument for malformed specs or an empty fit window.
[[nodiscard]] calibrate_spec parse_calibrate_spec(const std::string& spec,
                                                  double t0, double t_end,
                                                  int horizon_hours);

/// Outcome of calibrating one scenario.
struct scenario_calibration {
  fit::calibration_result fit;  ///< fitted params + SSE + evaluations
  /// The concrete rate spec the fitted model uses: "decay:<a>,<b>,<c>"
  /// (full %.17g precision, so it re-parses exactly) for "calibrate",
  /// the canonical preset name for "calibrate-fixed", and
  /// "spatial:<preset>|<m1>,<m2>,..." for "calibrate-spatial".
  std::string resolved_rate;
  double fit_a = 0.0, fit_b = 0.0, fit_c = 0.0;  ///< 0 when !fit_rate
  /// Fitted per-group multipliers; empty unless "calibrate-spatial".
  std::vector<double> multipliers;
};

/// Runs the calibrations behind every scenario's rate spec (each must
/// satisfy `is_calibrate_spec`; `slices[i]` is scenario i's slice) in
/// lockstep: one fit::calibrate_dl over one problem per scenario, whose
/// rounds solve their probes in core::solve_dl calls of at most `width`
/// lanes.  `base` carries the box bounds / lattice resolution /
/// refinement cap; its solver options and fit_rate flag are overwritten
/// from each scenario and its spec.  `cache` (nullable) memoizes whole
/// fits: each is one record of n + 2 value entries — the n fitted
/// coordinates, the SSE and the evaluation count — named by the
/// scenario's fit identity plus the search settings.  A scenario whose
/// record is whole in the cache is read back and not searched; the rest
/// run in one fit::calibrate_dl and store their records.  `pool`
/// (nullable) runs rounds that need several solve calls (the coarse
/// lattice) as one batch.  Every result — fit, evaluation count, cache
/// entries — is bitwise what calibrating that scenario alone gives,
/// warm or cold.  Throws std::invalid_argument for a malformed spec
/// before any probe runs.
[[nodiscard]] std::vector<scenario_calibration> calibrate_scenarios(
    std::span<const scenario> scenarios,
    std::span<const dataset_slice* const> slices,
    const fit::calibration_options& base, solve_cache* cache,
    thread_pool* pool, std::size_t width);

/// A scenario made ready to solve.
struct prepared_solve {
  /// What the model solves: the scenario itself, or — after a
  /// calibration — the scenario with the resolved rate and the fitted
  /// d/K overrides.
  scenario solved;
  /// Set iff the scenario's rate spec was calibrated.
  std::optional<scenario_calibration> calibration;
};

/// The one calibrate-then-solve step every executor shares (run_sweep,
/// dl_service), index-aligned with `scenarios` (`slices[i]` is scenario
/// i's slice).  The "calibrate" rate specs of a rate-using model are
/// fitted together through one model.calibrate_batch call (`options`,
/// `cache`, `pool` and `width` as in calibrate_scenarios) and each
/// scenario rewritten with its fit; any other scenario passes through
/// unchanged.  Throws std::invalid_argument "model '<name>' does not
/// support calibrate rate specs" (or "... spatial rate specs" for
/// "calibrate-spatial") when the model lacks the capability.
[[nodiscard]] std::vector<prepared_solve> prepare_solves(
    const diffusion_model& model, std::span<const scenario> scenarios,
    std::span<const dataset_slice* const> slices,
    const fit::calibration_options& options, solve_cache* cache,
    thread_pool* pool, std::size_t width);

/// prepare_solves for one scenario at width 1.
[[nodiscard]] prepared_solve prepare_solve(
    const diffusion_model& model, const scenario& sc,
    const dataset_slice& slice, const fit::calibration_options& options,
    solve_cache* cache, thread_pool* pool);

}  // namespace dlm::engine
