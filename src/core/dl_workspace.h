// Reusable scratch buffers for the scalar DL solver paths.
//
// The packed lanes (dl_batch_workspace) take every line Strang–CN and
// implicit-Newton solve.  Everything else — ftcs and mol_rk4 on the line,
// the 2-D ADI sheet and coupled communities — steps scalar loops that
// need ~10 heap vectors (state, Laplacian, tridiagonal rhs/scratch,
// per-node rates and integrated rates, RK4 stages) plus, on the non-line
// domains, Crank–Nicolson matrices and their cached Thomas
// factorizations.  A calibration sweep issues hundreds of solves back to
// back — on a handful of pool threads — so reallocating those buffers
// per solve is pure overhead.  dl_workspace owns all of them: prepare(n)
// sizes the per-node buffers once, and a steady-state time step then
// performs zero heap allocations.
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
  std::vector<double> u_next;  ///< next step / ADI u* / pre-mixing state
  std::vector<double> lap;     ///< discrete Laplacian
  std::vector<double> rhs;     ///< fused Strang–CN elimination scratch
  std::vector<double> scratch; ///< gathered ADI column

  // Growth-rate plumbing (size n; rate_scratch sized per rate family).
  std::vector<double> node_x;        ///< grid node coordinates
  std::vector<double> mod;           ///< separable spatial profile m(x_i)
  std::vector<double> rt;            ///< r(x_i, t) or ∫ r per step
  std::vector<double> r_int;         ///< ∫ r(x_i, s) ds per substep
  std::vector<double> rt_react;      ///< rates inside the MOL reaction term
  std::vector<double> rate_scratch;  ///< per-group family's group table

  /// φ sampled at the nodes (every block of a non-line domain); sized by
  /// the request, not by prepare().
  std::vector<double> phi;

  // Crank–Nicolson x-axis matrices of the non-line domains, built once
  // per run with the LHS factored once; and the 2-D ADI's second-axis
  // pair.  Sized by the domain solvers themselves (nx, ny), not by
  // prepare().
  num::tridiagonal_matrix cn_lhs;
  num::tridiagonal_matrix cn_rhs;
  num::tridiagonal_factorization cn_factor;
  num::tridiagonal_matrix cn_lhs_y;
  num::tridiagonal_matrix cn_rhs_y;
  num::tridiagonal_factorization cn_factor_y;

  // Method-of-lines RK4 stage buffers.
  num::rk4_scratch rk4;

  /// Sizes every per-node buffer to n (the CN matrices excepted).
  /// Buffer *capacity* is kept across calls, so a workspace reused at a
  /// fixed grid size allocates nothing after its first solve.
  void prepare(std::size_t n);
};

}  // namespace dlm::core
