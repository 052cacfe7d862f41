// Structure-of-arrays scratch for the batched DL solver.
//
// solve_dl(std::span<const solve_request>) advances a chunk of compatible
// strang_cn or implicit_newton scenarios (same scheme / grid / dt / time
// window) in lockstep: one time loop steps W independent solves at once.
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
//    scalar factorization: diag-shaped n·W, off-diag-shaped (n−1)·W;
//  * Newton rate rows: lane-major W·n, index [l*n + i] —
//    rate_field::profile writes one contiguous per-lane span — then
//    transposed node-major into `rhs` once per step (strang_cn lanes are
//    x-uniform and hoist one growth factor per lane instead);
//  * per-lane scalars (d, K, growth factors, rate classification): W.
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
#include <cstdint>
#include <vector>

#include "core/dl_solver.h"
#include "core/dl_workspace.h"
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
  std::vector<double> lane_d;   ///< diffusion coefficient d
  std::vector<double> lane_k;   ///< carrying capacity K
  std::vector<double> growth1;  ///< e^∫r, first logistic half-step
  std::vector<double> growth2;  ///< e^∫r, second logistic half-step
  std::vector<std::uint8_t> lane_factored;  ///< separable-form rate?

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

  /// Scalar workspace for the lanes the batch path hands back to the
  /// scalar solver: ftcs, mol_rk4 and spatial-rate strang_cn requests,
  /// non-line domains and groups of one — so solve_dl(request), the span
  /// of one, always runs here.
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
