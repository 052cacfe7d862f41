// Non-line domain solvers for the Diffusive Logistic equation.
//
// The scalar loop (dl_solver.cpp) dispatches here for the two non-line
// domain kinds (core/domain.h); the 1-D line steps in dl_solver.cpp
// (ftcs, mol_rk4) and on the packed lanes of dl_batch_solver.cpp
// (Strang–CN, implicit Newton).  All of them step the same
// detail::time_loop, so record times match across domains.
//
//  * grid2d — u(x, y, t) with ∂u/∂t = d(u_xx + u_yy) + r(x, t)u(1 − u/K)
//    and no-flux boundaries on all four edges, advanced by Strang
//    splitting around a Peaceman–Rachford ADI diffusion step:
//        reaction half-step (exact logistic, integrated rate per x node)
//        (I − (λx/2)Ax) u*      = (I + (λy/2)Ay) uⁿ    — tridiagonal in x
//        (I − (λy/2)Ay) u^{n+1} = (I + (λx/2)Ax) u*    — tridiagonal in y
//        reaction half-step
//    Both one-axis operators reuse detail::build_cn_matrices and a cached
//    num::tridiagonal_factorization per axis, so each step is two sets of
//    Thomas sweeps — no 2-D solve anywhere.
//
//  * communities — K coupled copies of the 1-D line, each advanced by the
//    fused Strang–CN step (detail::strang_cn_step: the packed line
//    kernel's sequence one lane at a time, so a K = 1 run is *bitwise
//    identical* to the plain line), followed by an explicit-Euler
//    cross-community mixing substep that is skipped entirely when K = 1
//    or the mixing matrix is zero — which is what makes the K = 1
//    identity exact rather than approximate.
//
// Only dl_scheme::strang_cn is supported on non-line domains; other
// schemes are rejected with the domain's label in the message.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/dl_solver.h"
#include "core/dl_solver_internal.h"
#include "core/dl_workspace.h"
#include "numerics/grid.h"
#include "numerics/tridiagonal.h"

namespace dlm::core::detail {
namespace {

void require_strang(const dl_parameters& params,
                    const dl_solver_options& options) {
  if (options.scheme != dl_scheme::strang_cn)
    throw std::invalid_argument("solve_dl: domain '" + params.dom.label() +
                                "' supports only the strang-cn scheme (got " +
                                to_string(options.scheme) + ")");
}

}  // namespace

std::vector<double> broadcast_profile(const dl_parameters& params,
                                      std::span<const double> x_profile,
                                      const dl_solver_options& options) {
  const domain& dom = params.dom;
  const std::size_t nx = x_profile.size();
  const std::size_t blocks = dom.blocks(options.points_per_unit);
  std::vector<double> full(nx * blocks);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const double scale = (dom.kind == domain_kind::communities &&
                          !dom.scales.empty())
                             ? dom.scales[blk]
                             : 1.0;
    for (std::size_t i = 0; i < nx; ++i)
      full[blk * nx + i] = x_profile[i] * scale;
  }
  return full;
}

dl_solution solve_dl_grid2d(const dl_parameters& params,
                            std::span<const double> phi_samples,
                            const time_loop& loop,
                            const dl_solver_options& options,
                            dl_workspace& ws) {
  require_strang(params, options);
  const std::size_t nx = node_count(params, options);
  const std::size_t ny = params.dom.blocks(options.points_per_unit);
  const std::size_t n = nx * ny;
  if (phi_samples.size() != n)
    throw std::invalid_argument("solve_dl: profile size mismatch");

  const num::uniform_grid grid(params.x_min, params.x_max, nx);
  const num::uniform_grid y_grid(params.dom.y_min, params.dom.y_max, ny);
  const double dx = grid.spacing();
  const double dy = y_grid.spacing();

  ws.prepare(n);
  std::vector<double>& u = ws.u;
  std::vector<double>& u_star = ws.u_next;  ///< ADI intermediate u*
  std::vector<double>& col = ws.scratch;    ///< gathered y column (≥ ny)
  u.assign(phi_samples.begin(), phi_samples.end());

  // The growth rate lives on the x axis (r(x, t), uniform in y), so rate
  // buffers span nx nodes, not n.
  for (std::size_t i = 0; i < nx; ++i) ws.node_x[i] = grid.x(i);
  const rate_sampler sampler(
      params.r, std::span<const double>(ws.node_x.data(), nx),
      std::span<double>(ws.mod.data(), nx), ws.rate_scratch);
  const std::span<double> r_int(ws.r_int.data(), nx);
  const std::span<double> rt(ws.rt.data(), nx);

  // One tridiagonal operator pair per axis; both LHS factorizations are
  // cached for the whole run (rebuilt only for a short trailing step).
  const auto build_operators = [&](double h) {
    ws.cn_lhs.resize(nx);
    ws.cn_rhs.resize(nx);
    build_cn_matrices(nx, params.d * h / (dx * dx), ws.cn_lhs, ws.cn_rhs);
    ws.cn_factor.factor(ws.cn_lhs);
    ws.cn_lhs_y.resize(ny);
    ws.cn_rhs_y.resize(ny);
    build_cn_matrices(ny, params.d * h / (dy * dy), ws.cn_lhs_y, ws.cn_rhs_y);
    ws.cn_factor_y.factor(ws.cn_lhs_y);
  };
  build_operators(loop.first_step());

  const double kk = params.k;
  /// Exact-logistic reaction half-step over the whole grid; `rates[i]` is
  /// the integrated rate of x node i (one shared exp when uniform in x).
  const auto react = [&](std::span<const double> rates) {
    if (sampler.uniform()) {
      const double growth = std::exp(rates[0]);
      for (std::size_t idx = 0; idx < n; ++idx)
        u[idx] = logistic_exact_with_growth(u[idx], growth, kk);
    } else {
      for (std::size_t j = 0; j < ny; ++j)
        for (std::size_t i = 0; i < nx; ++i)
          u[j * nx + i] = logistic_exact(u[j * nx + i], rates[i], kk);
    }
  };

  trace_storage trace(n);
  trace.reserve(loop.max_rows());
  const num::tridiagonal_matrix& ax = ws.cn_rhs;    // I + (λx/2)Ax
  const num::tridiagonal_matrix& ay = ws.cn_rhs_y;  // I + (λy/2)Ay
  const auto step = [&](double t, double h) {
    if (h != loop.first_step()) build_operators(h);

    sampler.integrals_over(t, t + 0.5 * h, r_int);
    sampler.integrals_over(t + 0.5 * h, t + h, rt);
    react(r_int);

    // ADI pass 1: explicit y operator, implicit x solve row by row.
    for (std::size_t j = 0; j < ny; ++j) {
      const double* row = u.data() + j * nx;
      const double* below = j > 0 ? row - nx : nullptr;
      const double* above = j + 1 < ny ? row + nx : nullptr;
      double* out = u_star.data() + j * nx;
      for (std::size_t i = 0; i < nx; ++i) {
        double acc = ay.diag[j] * row[i];
        if (below != nullptr) acc += ay.lower[j - 1] * below[i];
        if (above != nullptr) acc += ay.upper[j] * above[i];
        out[i] = acc;
      }
      ws.cn_factor.solve_in_place(std::span<double>(out, nx));
    }

    // ADI pass 2: explicit x operator, implicit y solve column by column.
    for (std::size_t j = 0; j < ny; ++j) {
      const double* row = u_star.data() + j * nx;
      double* out = u.data() + j * nx;
      for (std::size_t i = 0; i < nx; ++i) {
        double acc = ax.diag[i] * row[i];
        if (i > 0) acc += ax.lower[i - 1] * row[i - 1];
        if (i + 1 < nx) acc += ax.upper[i] * row[i + 1];
        out[i] = acc;
      }
    }
    for (std::size_t i = 0; i < nx; ++i) {
      for (std::size_t j = 0; j < ny; ++j) col[j] = u[j * nx + i];
      ws.cn_factor_y.solve_in_place(std::span<double>(col.data(), ny));
      for (std::size_t j = 0; j < ny; ++j) u[j * nx + i] = col[j];
    }

    react(rt);
  };
  std::vector<double> times = loop.run(step, [&] { trace.append_row(u); });
  return dl_solution(grid, std::move(times), std::move(trace), ny);
}

dl_solution solve_dl_communities(const dl_parameters& params,
                                 std::span<const double> phi_samples,
                                 const time_loop& loop,
                                 const dl_solver_options& options,
                                 dl_workspace& ws) {
  require_strang(params, options);
  const std::size_t nx = node_count(params, options);
  const std::size_t kc = params.dom.community_count;
  const std::size_t n = nx * kc;
  if (phi_samples.size() != n)
    throw std::invalid_argument("solve_dl: profile size mismatch");

  const num::uniform_grid grid(params.x_min, params.x_max, nx);
  const double dx = grid.spacing();

  ws.prepare(n);
  std::vector<double>& u = ws.u;
  std::vector<double>& pre_mix = ws.u_next;
  u.assign(phi_samples.begin(), phi_samples.end());

  for (std::size_t i = 0; i < nx; ++i) ws.node_x[i] = grid.x(i);
  const rate_sampler sampler(
      params.r, std::span<const double>(ws.node_x.data(), nx),
      std::span<double>(ws.mod.data(), nx), ws.rate_scratch);
  const std::span<double> r_int(ws.r_int.data(), nx);
  const std::span<double> rt(ws.rt.data(), nx);

  // One nx-sized Strang–CN operator shared by every community (same d,
  // dx, dt).  For K = 1 this is exactly the line path's matrix build.
  const auto build_operators = [&](double h) {
    ws.cn_lhs.resize(nx);
    ws.cn_rhs.resize(nx);
    build_cn_matrices(nx, params.d * h / (dx * dx), ws.cn_lhs, ws.cn_rhs);
    ws.cn_factor.factor(ws.cn_lhs);
  };
  build_operators(loop.first_step());

  // The mixing substep is skipped when it cannot change anything — this
  // is what makes a K = 1 run bitwise identical to the plain 1-D line.
  const bool mixing_on = kc > 1 && params.dom.has_mixing();
  const std::vector<double>& mix = params.dom.mixing;

  trace_storage trace(n);
  trace.reserve(loop.max_rows());
  const auto step = [&](double t, double h) {
    if (h != loop.first_step()) build_operators(h);

    sampler.integrals_over(t, t + 0.5 * h, r_int);
    sampler.integrals_over(t + 0.5 * h, t + h, rt);
    for (std::size_t c = 0; c < kc; ++c)
      strang_cn_step(nx, u.data() + c * nx, ws.rhs.data(), ws.cn_rhs,
                     ws.cn_factor, sampler.uniform(), r_int.data(), rt.data(),
                     params.k);

    if (mixing_on) {
      // Explicit-Euler exchange against the pre-mixing state, so the
      // update is symmetric in community order (and deterministic).
      pre_mix.assign(u.begin(), u.end());
      for (std::size_t c = 0; c < kc; ++c) {
        double* dst = u.data() + c * nx;
        const double* own = pre_mix.data() + c * nx;
        for (std::size_t c2 = 0; c2 < kc; ++c2) {
          if (c2 == c) continue;
          const double rate = mix[c * kc + c2];
          if (rate == 0.0) continue;
          const double* other = pre_mix.data() + c2 * nx;
          for (std::size_t i = 0; i < nx; ++i)
            dst[i] += h * rate * (other[i] - own[i]);
        }
      }
    }
  };
  std::vector<double> times = loop.run(step, [&] { trace.append_row(u); });
  return dl_solution(grid, std::move(times), std::move(trace), kc);
}

}  // namespace dlm::core::detail
