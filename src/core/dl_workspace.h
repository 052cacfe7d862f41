// Reusable scratch buffers for the DL solver hot path.
//
// A single solve_dl call needs ~10 heap vectors (state, Laplacian,
// tridiagonal rhs/scratch, per-node rates and integrated rates, Newton
// Jacobian and residual, RK4 stages) plus the Crank–Nicolson matrices and
// their cached Thomas factorization.  A calibration sweep issues hundreds
// of solves back to back — on a handful of pool threads — so reallocating
// those buffers per solve is pure overhead.  dl_workspace owns all of
// them: prepare(n) sizes everything once, and a steady-state time step of
// any of the four schemes then performs zero heap allocations.
//
// There is one per thread: the `scalar` member of the thread-local
// dl_batch_workspace (core/dl_batch_workspace.h), which every solve_dl
// call on that thread — including each engine pool worker running
// calibration probes — reuses automatically.
//
// Reuse never changes results: a workspace-reusing solve is bitwise
// identical to a solve on a fresh thread's workspace (covered by
// solver_workspace_test).
#pragma once

#include <cstddef>
#include <vector>

#include "numerics/integrate.h"
#include "numerics/tridiagonal.h"

namespace dlm::core {

struct dl_workspace {
  // State vectors (size n, the grid node count).
  std::vector<double> u;       ///< current solution
  std::vector<double> u_next;  ///< next-step / Newton iterate
  std::vector<double> lap;     ///< discrete Laplacian
  std::vector<double> rhs;     ///< tridiagonal right-hand side
  std::vector<double> scratch; ///< Thomas-elimination scratch

  // Growth-rate plumbing (size n; rate_scratch sized per rate family).
  std::vector<double> node_x;        ///< grid node coordinates
  std::vector<double> mod;           ///< separable spatial profile m(x_i)
  std::vector<double> rt;            ///< r(x_i, t) per step
  std::vector<double> r_int;         ///< ∫ r(x_i, s) ds per substep
  std::vector<double> rt_react;      ///< rates inside the MOL reaction term
  std::vector<double> rate_scratch;  ///< per-group family's group table

  // Implicit-Newton scheme.
  num::tridiagonal_matrix jac;   ///< Jacobian, rebuilt per iteration
  std::vector<double> newton_g;  ///< Newton residual

  // Strang–CN scheme: matrices built once per run, LHS factored once.
  num::tridiagonal_matrix cn_lhs;
  num::tridiagonal_matrix cn_rhs;
  num::tridiagonal_factorization cn_factor;

  // Second-axis CN matrices for the 2-D ADI domain solver (the x-axis
  // pair above is resized to nx there).  Sized by that solver itself —
  // prepare() leaves them alone so the 1-D path is untouched.
  num::tridiagonal_matrix cn_lhs_y;
  num::tridiagonal_matrix cn_rhs_y;
  num::tridiagonal_factorization cn_factor_y;

  // Method-of-lines RK4 stage buffers.
  num::rk4_scratch rk4;

  /// Sizes every per-node buffer to n.  Buffer *capacity* is kept across
  /// calls, so a workspace reused at a fixed grid size allocates nothing
  /// after its first solve.
  void prepare(std::size_t n);
};

}  // namespace dlm::core
