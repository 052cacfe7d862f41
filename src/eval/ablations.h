// Ablation printers (DESIGN.md §2, non-paper benches).
//
// Each ablation isolates one design choice of the DL model: the diffusion
// term and the r(t) family.  Both are sweeps of `paper_sweeps`
// (eval/experiments.h), run by engine::run_sweep; the printers read the
// sweep's rows and kept traces.  The numerical-scheme and grid-resolution
// ablations are engine sweeps too (bench/ablation_solver_scheme.cpp,
// bench/ablation_grid_resolution.cpp).
#pragma once

#include <iosfwd>

#include "engine/scenario_runner.h"

namespace dlm::eval {

/// DL vs growth only (per_distance_logistic, d = 0) vs diffusion only
/// (heat, r = 0): the per-distance average accuracy (t = 2..6) of each
/// model's kept trace in `result`, a run of
/// paper_sweeps::diffusion_ablation over `context`.
void print_diffusion_ablation(std::ostream& out,
                              const engine::scenario_context& context,
                              const engine::sweep_result& result);

/// Paper decaying r(t) vs constant rates vs least-squares-calibrated
/// rates, temporal ("calibrate:4") and spatio-temporal
/// ("calibrate-spatial:4": per-hop multipliers m(x)·r(t), paper §V): one
/// line per row of a paper_sweeps::growth_ablation run, calibrated rows
/// with their fit-window SSE so r(x, t) vs r(t) is directly comparable.
void print_growth_ablation(std::ostream& out,
                           const engine::result_table& table);

}  // namespace dlm::eval
