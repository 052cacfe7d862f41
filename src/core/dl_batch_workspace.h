// Structure-of-arrays scratch for the batched DL solver.
//
// solve_dl(std::span<const solve_request>) advances a chunk of compatible
// strang_cn or implicit_newton scenarios on the line (same scheme / grid
// / dt / time window) in lockstep: one time loop steps W independent
// solves at once.  A single request is a chunk of one.
// The state is packed grid-node-major × scenario-minor — u[node * W +
// lane] — with W even (an odd chunk carries a padding copy of its last
// lane), so each node's lanes load as W/2 two-double vectors and the
// serial Thomas recurrences interleave W/2 independent packed chains,
// hiding the division latency that dominates the scalar sweep.
//
// Layouts at a glance (n nodes, W lanes):
//
//  * SoA state / rhs / Newton residual and c*: n·W, index [i*W + l];
//  * Crank–Nicolson coefficients, scattered per lane from each lane's
//    num::tridiagonal_factorization: diag-shaped n·W, off-diag-shaped
//    (n−1)·W;
//  * rate rows: lane-major W·n, index [l*n + i] — rate_field writes one
//    contiguous per-lane span.  Newton rates r(x_i, t + h) are then
//    transposed node-major into `rhs` once per step;
//  * Strang reaction data: one growth factor e^∫r per lane (x-uniform
//    rates, index [l]) or a lane-major row of integrated rates ∫r(x_i)
//    per lane (index [l*n + i]);
//  * per-lane scalars (d, K): W.
//
// The Crank–Nicolson cache holds one rhs-matrix + Thomas factorization
// per *distinct* λ = d·dt/dx² in the group, so lanes probing the same
// diffusion coefficient share one elimination.
//
// Like dl_workspace, reuse never changes results: prepare() keeps
// capacity across groups, and a reused batch workspace is bitwise
// identical to a fresh one (solver_batch_test).
#pragma once

#include <cstddef>
#include <vector>

#include "core/dl_solver.h"
#include "core/dl_workspace.h"
#include "core/trace_storage.h"
#include "numerics/tridiagonal.h"

namespace dlm::core {

struct dl_batch_workspace {
  // SoA state, size n·W.
  std::vector<double> u;       ///< current solution, all lanes
  std::vector<double> u_next;  ///< Newton iterate (implicit_newton only)
  std::vector<double> rhs;     ///< interleaved Thomas right-hand sides
                               ///< (Newton: node-major r(x_i, t + h))

  // Crank–Nicolson coefficients scattered per lane (strang_cn only):
  // rhs-matrix diagonals and the cached elimination of the lane's lhs.
  std::vector<double> cn_dm;  ///< rhs-matrix diag, n·W
  std::vector<double> cn_lm;  ///< rhs-matrix lower, (n−1)·W
  std::vector<double> cn_um;  ///< rhs-matrix upper, (n−1)·W
  std::vector<double> cn_fl;  ///< factor lower l_i, (n−1)·W
  std::vector<double> cn_fp;  ///< factor pivots d'_i, n·W
  std::vector<double> cn_fc;  ///< factor c*_i, (n−1)·W

  // Newton scratch (implicit_newton only): the eliminated residual and
  // the Thomas c*_i, size n·W.
  std::vector<double> newton_g;
  std::vector<double> newton_c;

  // Per-lane scalars, size W.
  std::vector<double> lane_d;  ///< diffusion coefficient d
  std::vector<double> lane_k;  ///< carrying capacity K

  // Strang reaction data (strang_cn only), size W·n: e^∫r per lane in
  // the first W for x-uniform rates, else one ∫r(x_i) row per lane.
  std::vector<double> growth1;  ///< first logistic half-step
  std::vector<double> growth2;  ///< second logistic half-step

  // Lane-major rate rows, size W·n (row l is lane l's contiguous span).
  std::vector<double> mod_rows;  ///< separable spatial profile m(x_i)
  std::vector<double> rt_rows;   ///< r(x_i, t + h) per Newton step

  // Shared per-node buffers, size n.
  std::vector<double> node_x;  ///< grid node coordinates
  std::vector<double> row;     ///< de-interleave scratch for recording
  std::vector<double> rate_scratch;  ///< per-group rate family's table

  /// One cached Crank–Nicolson elimination per distinct λ = d·dt/dx²
  /// in the group.
  struct cn_entry {
    double lambda = 0.0;
    num::tridiagonal_matrix rhs_m;
    num::tridiagonal_factorization factor;
  };
  std::vector<cn_entry> cn_cache;
  num::tridiagonal_matrix cn_lhs;  ///< build scratch for cache entries

  /// One trace per real lane of the running chunk, moved out into its
  /// solution; the vector itself keeps its capacity across chunks.
  std::vector<trace_storage> traces;

  /// Scalar workspace for the requests the lanes do not take: ftcs and
  /// mol_rk4 on the line, and every request on a non-line domain.
  dl_workspace scalar;

  /// True while a solve is running on this workspace; solve_dl checks it
  /// so a reentrant solve on the same thread falls back to a private
  /// workspace instead of clobbering live buffers.
  bool in_use = false;

  /// Sizes every buffer for an n-node, `width`-lane group of the given
  /// scheme.  Capacity is kept across calls, so a workspace reused at a
  /// fixed shape allocates nothing after its first group.
  void prepare(std::size_t n, std::size_t width, dl_scheme scheme);
};

/// This thread's workspace: the only scratch solve_dl uses (a reentrant
/// solve excepted).
[[nodiscard]] dl_batch_workspace& thread_batch_workspace();

}  // namespace dlm::core
