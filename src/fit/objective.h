// Least-squares objective for DL calibration.
//
// The paper selects d, K and the r(t) family manually (§II.D guidelines:
// "r controls the gap between I(x,t) and I(x,t+1) … d controls the slope
// of I … K controls the upper bound").  This module turns those guidelines
// into an objective: sum of squared residuals between the DL solution and
// the densities observed during the early window, which `calibrate_dl`
// minimizes.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/dl_parameters.h"
#include "core/dl_solver.h"

namespace dlm::fit {

/// The early observations available for calibration.
struct observation_window {
  double t0 = 1.0;                ///< time of the initial profile (hour 1)
  std::vector<double> initial;    ///< densities at integer distances, t = t0
  std::vector<double> times;      ///< observed times, all > t0, ascending
  /// observed[i][j]: density at distance x_min + i, time times[j].
  std::vector<std::vector<double>> observed;

  /// Throws std::invalid_argument when shapes are inconsistent.
  void validate() const;
};

/// Sum of squared residuals of the DL solution for `params` against the
/// window (solves the PDE once).  Returns +inf for invalid parameters so
/// optimizers can probe freely.  The solve runs on the calling thread's
/// workspace (core/dl_batch_workspace.h), so a lattice scan fanned out
/// over a pool (or a Nelder–Mead refinement on one thread) reuses scratch
/// buffers across all of its probes instead of reallocating per solve.
[[nodiscard]] double dl_sse(const core::dl_parameters& params,
                            const observation_window& window,
                            const core::dl_solver_options& solver = {});

/// One evaluation of a batched dl_sse: what the scalar overload takes.
/// Pointees must outlive the call.
struct sse_probe {
  const core::dl_parameters* params = nullptr;
  const observation_window* window = nullptr;
  core::dl_solver_options solver{};
};

/// dl_sse of every probe, index-aligned and bitwise equal to the scalar
/// overload per probe.  The valid probes' PDE solves go to one
/// core::solve_dl(span) call, so compatible probes (same scheme, grid,
/// dt and window) advance in lockstep; if that call throws — some
/// probe's solve fails — every probe is solved alone instead, so each
/// failing probe scores +inf exactly as it would on its own.  Throws
/// std::invalid_argument for an inconsistent window, like the scalar
/// overload.
[[nodiscard]] std::vector<double> dl_sse(std::span<const sse_probe> probes);

/// The message of the error that makes dl_sse score `probe` +inf — its
/// parameter validation or its solve — or empty when both succeed (its
/// residuals are then what is not finite).  Solves the probe again,
/// alone.
[[nodiscard]] std::string dl_sse_failure(const sse_probe& probe);

}  // namespace dlm::fit
