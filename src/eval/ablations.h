// Ablation experiment runners (DESIGN.md §2, non-paper benches).
//
// Each ablation isolates one design choice of the DL model: the diffusion
// term and the r(t) family.  The numerical-scheme and grid-resolution
// ablations are plain engine sweeps (bench/ablation_solver_scheme.cpp,
// bench/ablation_grid_resolution.cpp).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "eval/experiments.h"

namespace dlm::eval {

// -------------------------------------------------- diffusion-term ablation
/// DL vs temporal-only (per-distance logistic, d = 0) vs diffusion-only
/// (heat equation, r = 0) on one story's prediction task.
struct diffusion_ablation_result {
  std::vector<int> distances;
  /// Per-distance average accuracy (t = 2..6) of each model.
  std::vector<double> dl_accuracy;
  std::vector<double> logistic_accuracy;
  std::vector<double> heat_accuracy;
  double dl_overall = 0.0;
  double logistic_overall = 0.0;
  double heat_overall = 0.0;
};
[[nodiscard]] diffusion_ablation_result run_diffusion_ablation(
    const experiment_context& ctx, std::size_t story_index,
    social::distance_metric metric, int max_distance);
void print_diffusion_ablation(std::ostream& out,
                              const diffusion_ablation_result& r);

// ------------------------------------------------------ growth-rate ablation
/// Paper decaying r(t) vs constant rates vs least-squares-calibrated
/// rates — temporal ("calibrate:4") and spatio-temporal
/// ("calibrate-spatial:4": per-hop multipliers m(x)·r(t), paper §V) —
/// one engine sweep over the `rates` axis.  Calibrated rows carry the
/// fit-window SSE so r(x, t) vs r(t) is directly comparable.
struct growth_ablation_row {
  std::string label;
  double overall_accuracy = 0.0;
  bool fitted = false;   ///< true for the calibrate rows
  double fit_sse = 0.0;  ///< fit-window SSE (calibrate rows only)
};
[[nodiscard]] std::vector<growth_ablation_row> run_growth_ablation(
    const experiment_context& ctx, std::size_t story_index);
void print_growth_ablation(std::ostream& out,
                           const std::vector<growth_ablation_row>& rows);

}  // namespace dlm::eval
