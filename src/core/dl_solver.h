// Finite-difference solvers for the Diffusive Logistic equation.
//
// Four schemes, cross-checked against each other in the test suite:
//
//  * ftcs            — forward-time centred-space explicit scheme; simple,
//                      conditionally stable (dt ≤ dx²/(2d)).
//  * strang_cn       — Strang splitting: exact logistic half-step (the
//                      reaction ODE has a closed form given ∫r), implicit
//                      Crank–Nicolson diffusion full-step, logistic
//                      half-step.  Second order, unconditionally stable,
//                      positivity- and K-bound-preserving.  Default.
//  * implicit_newton — fully implicit backward Euler with a Newton solve
//                      (tridiagonal Jacobian) each step; most robust for
//                      stiff parameter regimes, first order in time.
//  * mol_rk4         — method of lines: spatial discretization + classical
//                      RK4 in time; high accuracy reference for smooth
//                      regimes.
//
// Space is discretized on a uniform grid over [l, L]; the Neumann no-flux
// boundaries use mirror ghost nodes (second-order one-sided Laplacian).
//
// All four schemes consume the growth rate as a spatio-temporal field
// r(x, t) (core::rate_field, paper §V): the reaction term — and, for
// strang_cn, the exact logistic substep's integrated rate — is evaluated
// per grid node.  Separable-form fields (every r(t)-only run) keep the
// original cost: the spatial profile is hoisted out of the time loop.
//
// The hot path is allocation-free: every scratch buffer lives in this
// thread's core::dl_batch_workspace (reused across solves), the Strang–CN
// diffusion matrix is Thomas-factored once per run, and the hourly
// snapshots land in one contiguous trace_storage buffer reserved up
// front.  A steady-state time step performs zero heap allocations.
//
// Entry point: build a core::solve_request (params + initial data + window
// + options) and hand a span of them to solve_dl(span<const solve_request>),
// which advances compatible strang_cn and implicit_newton requests (same
// scheme/grid/dt/window) in lockstep over structure-of-arrays lanes,
// interleaving every lane's Thomas sweep; solve_dl(request) is the span
// of one.  Batched lanes are bitwise identical to single-request solves
// (solver_batch_test), so caches, golden fits and CSV output are
// unaffected by how requests are grouped.  docs/solver_api.md describes
// the request fields.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/dl_parameters.h"
#include "core/initial_condition.h"
#include "core/trace_storage.h"
#include "numerics/grid.h"

namespace dlm::core {

/// Time-stepping scheme selector.
enum class dl_scheme { ftcs, strang_cn, implicit_newton, mol_rk4 };

[[nodiscard]] std::string to_string(dl_scheme scheme);

/// Solver options.  Snapshots are recorded every whole hour after t0
/// (plus the initial and final profiles): the paper reads density only
/// at whole hours (§III.C).
struct dl_solver_options {
  dl_scheme scheme = dl_scheme::strang_cn;
  /// Grid nodes per unit distance; integer distances land exactly on
  /// nodes when x_min is an integer.
  std::size_t points_per_unit = 20;
  double dt = 0.02;  ///< time step (hours)
  int newton_max_iter = 16;
  double newton_tol = 1e-11;
};

/// A solved trajectory I(x, t) — or, on a non-line domain, I(x, ·, t)
/// with `blocks` rows (grid2d y nodes / communities) stacked behind the x
/// axis in each snapshot.  The interpolating accessors (at, profile_at,
/// at_integer_distances) reduce over blocks by averaging, so every 1-D
/// consumer — accuracy scoring, fit objectives, the service's predict —
/// reads any domain through the same x-indexed surface; states() exposes
/// the full per-block rows.
class dl_solution {
 public:
  /// Snapshots packed row-major in `states` (one row per entry of
  /// `times`, row width grid.points() × blocks); this is what the solver
  /// produces.
  dl_solution(num::uniform_grid grid, std::vector<double> times,
              trace_storage states, std::size_t blocks = 1);

  [[nodiscard]] const num::uniform_grid& grid() const noexcept { return grid_; }
  /// Rows stacked behind the x axis (1 on the line domain).
  [[nodiscard]] std::size_t blocks() const noexcept { return blocks_; }
  [[nodiscard]] const std::vector<double>& times() const noexcept {
    return times_;
  }
  /// Recorded snapshots: a random-access range of std::span rows over one
  /// contiguous buffer; states()[s][i] is node i of snapshot s.
  [[nodiscard]] const trace_storage& states() const noexcept {
    return states_;
  }

  /// I(x, t) by linear interpolation in both x (grid) and t (snapshots).
  /// Throws std::out_of_range outside the solved domain.
  [[nodiscard]] double at(double x, double t) const;

  /// Spatial profile at time `t` on the full grid (linear interp in t).
  [[nodiscard]] std::vector<double> profile_at(double t) const;

  /// Values at integer distances x = x_from..x_to at time t — the
  /// only points where density is meaningful in an OSN (paper §III.C).
  [[nodiscard]] std::vector<double> at_integer_distances(double t, int x_from,
                                                         int x_to) const;

  /// Allocation-free variant writing into `out` (size x_to − x_from + 1);
  /// the time bracket is computed once and shared across all distances.
  void at_integer_distances(double t, int x_from, int x_to,
                            std::span<double> out) const;

  /// Maximum of |I| over all snapshots — used by stability tests.
  [[nodiscard]] double max_abs() const;

 private:
  /// A time bracket: snapshot indices lo/hi and the interpolation weight
  /// of hi.  Computed once per query time, shared across nodes.
  struct time_bracket {
    std::size_t lo = 0;
    std::size_t hi = 0;
    double w = 0.0;
  };
  [[nodiscard]] time_bracket bracket_time(double t) const;
  [[nodiscard]] double value_at(double x, const time_bracket& b) const;

  num::uniform_grid grid_;
  std::vector<double> times_;
  trace_storage states_;
  std::size_t blocks_ = 1;
};

/// One DL solve, fully described: the unified entry point of this module.
///
/// Exactly one of `phi` / `phi_samples` supplies the initial data:
///  * phi         — sampled on the implied grid, then clipped at zero
///                  (densities are non-negative; a cubic interpolant may
///                  undershoot between sparse knots);
///  * phi_samples — a raw profile already on the solver grid (size must
///                  equal the implied node count), used verbatim.
///
/// `params` and `phi` are captured by pointer, not copied: a request is a
/// cheap view meant to be built per call (calibration builds thousands),
/// so the pointees must outlive the solve_dl call consuming the request.
struct solve_request {
  const dl_parameters* params = nullptr;       ///< required
  const initial_condition* phi = nullptr;      ///< initial data, sampled
  std::span<const double> phi_samples{};       ///< or: pre-sampled profile
  double t0 = 1.0;                             ///< window start (hours)
  double t_end = 6.0;                          ///< window end
  dl_solver_options options{};                 ///< scheme / grid / dt
};

/// Solves a span of requests, returning one solution per request in
/// request order.  Line strang_cn and implicit_newton requests sharing a
/// scheme, grid, dt and time window (and, for strang_cn, whether the
/// rate varies in x) are grouped (index-stably, by first occurrence) and
/// advanced in lockstep over structure-of-arrays lanes that interleave
/// their Thomas sweeps (each distinct diffusion coefficient's
/// Crank–Nicolson factorization is shared within a group; Newton lanes
/// iterate to their own convergence under a per-lane mask); a group of
/// one is one padded pack of the same kernels.  Everything else (ftcs
/// and mol_rk4, whose lanes are no faster than scalar solves; non-line
/// domains) steps the scalar loop.  Per-request results do not depend
/// on the grouping.  Scratch is this thread's dl_batch_workspace
/// (core/dl_batch_workspace.h).
///
/// Any invalid request throws the same exception its single solve
/// would; the span overload gives no partial results.  A window whose step count
/// (t_end − t0)/dt is not below 2^53 throws std::invalid_argument.
[[nodiscard]] std::vector<dl_solution> solve_dl(
    std::span<const solve_request> requests);

/// Solves one request: the span of one.
[[nodiscard]] dl_solution solve_dl(const solve_request& request);

/// Mirror-ghost Neumann Laplacian of `u` scaled by 1/dx² into `out`
/// (exposed for tests).
void neumann_laplacian(std::span<const double> u, double dx,
                       std::span<double> out);

}  // namespace dlm::core
