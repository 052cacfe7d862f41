#include "core/dl_solver.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/dl_solver_internal.h"
#include "core/dl_workspace.h"
#include "numerics/integrate.h"

namespace dlm::core {
namespace {

// The per-node arithmetic (node count, rate sampling, the time loop)
// lives in dl_solver_internal.h, shared verbatim with the batched SoA
// solver and the domain solvers so every path is the same IEEE operation
// sequence.
using detail::node_count;
using detail::rate_sampler;

}  // namespace

std::string to_string(dl_scheme scheme) {
  switch (scheme) {
    case dl_scheme::ftcs: return "ftcs";
    case dl_scheme::strang_cn: return "strang-cn";
    case dl_scheme::implicit_newton: return "implicit-newton";
    case dl_scheme::mol_rk4: return "mol-rk4";
  }
  return "unknown";
}

void neumann_laplacian(std::span<const double> u, double dx,
                       std::span<double> out) {
  const std::size_t n = u.size();
  if (out.size() != n)
    throw std::invalid_argument("neumann_laplacian: size mismatch");
  if (n < 2) throw std::invalid_argument("neumann_laplacian: need >= 2 nodes");
  const double inv = 1.0 / (dx * dx);
  out[0] = 2.0 * (u[1] - u[0]) * inv;
  for (std::size_t i = 1; i + 1 < n; ++i)
    out[i] = (u[i - 1] - 2.0 * u[i] + u[i + 1]) * inv;
  out[n - 1] = 2.0 * (u[n - 2] - u[n - 1]) * inv;
}

dl_solution::dl_solution(num::uniform_grid grid, std::vector<double> times,
                         trace_storage states, std::size_t blocks)
    : grid_(grid),
      times_(std::move(times)),
      states_(std::move(states)),
      blocks_(blocks) {
  if (times_.empty() || times_.size() != states_.size())
    throw std::invalid_argument("dl_solution: times/states mismatch");
  if (blocks_ == 0 || states_.cols() != grid_.points() * blocks_)
    throw std::invalid_argument("dl_solution: grid/blocks/row-width mismatch");
}

dl_solution::time_bracket dl_solution::bracket_time(double t) const {
  if (t < times_.front() - 1e-12 || t > times_.back() + 1e-12)
    throw std::out_of_range("dl_solution::at: t outside the solved range");
  t = std::clamp(t, times_.front(), times_.back());

  const auto upper = std::lower_bound(times_.begin(), times_.end(), t);
  std::size_t hi = upper == times_.end()
                       ? times_.size() - 1
                       : static_cast<std::size_t>(upper - times_.begin());
  if (hi == 0) hi = 1;
  const std::size_t lo = hi - 1;
  const double w = (times_[hi] > times_[lo])
                       ? (t - times_[lo]) / (times_[hi] - times_[lo])
                       : 1.0;
  return {lo, hi, w};
}

double dl_solution::value_at(double x, const time_bracket& b) const {
  // Linear interpolation in x within each bracketing snapshot; the x
  // weights depend only on x, so they are computed once for both rows.
  const double pos = (x - grid_.lower()) / grid_.spacing();
  const auto i = static_cast<std::size_t>(
      std::clamp(pos, 0.0, static_cast<double>(grid_.points() - 1)));
  const std::size_t j = std::min(i + 1, grid_.points() - 1);
  const double frac = std::clamp(pos - static_cast<double>(i), 0.0, 1.0);
  const std::span<const double> lo = states_[b.lo];
  const std::span<const double> hi = states_[b.hi];
  if (blocks_ == 1) {
    const double in_lo = lo[i] * (1.0 - frac) + lo[j] * frac;
    const double in_hi = hi[i] * (1.0 - frac) + hi[j] * frac;
    return (1.0 - b.w) * in_lo + b.w * in_hi;
  }
  // Non-line domain: the 1-D consumers see the mean over the stacked
  // blocks (grid2d y rows / communities) at this x — a deterministic
  // fixed-order reduction, so cached traces replay byte-identically.
  const std::size_t nx = grid_.points();
  double sum = 0.0;
  for (std::size_t blk = 0; blk < blocks_; ++blk) {
    const std::size_t base = blk * nx;
    const double in_lo = lo[base + i] * (1.0 - frac) + lo[base + j] * frac;
    const double in_hi = hi[base + i] * (1.0 - frac) + hi[base + j] * frac;
    sum += (1.0 - b.w) * in_lo + b.w * in_hi;
  }
  return sum / static_cast<double>(blocks_);
}

double dl_solution::at(double x, double t) const {
  if (!grid_.contains(x))
    throw std::out_of_range("dl_solution::at: x outside the domain");
  return value_at(x, bracket_time(t));
}

std::vector<double> dl_solution::profile_at(double t) const {
  // One time bracket for the whole profile — the old per-node at() calls
  // re-ran the lower_bound bracketing grid.points() times.
  const time_bracket b = bracket_time(t);
  std::vector<double> out(grid_.points());
  for (std::size_t i = 0; i < grid_.points(); ++i)
    out[i] = value_at(grid_.x(i), b);
  return out;
}

std::vector<double> dl_solution::at_integer_distances(double t, int x_from,
                                                      int x_to) const {
  if (x_from > x_to)
    throw std::invalid_argument("at_integer_distances: empty range");
  std::vector<double> out(static_cast<std::size_t>(x_to - x_from + 1));
  at_integer_distances(t, x_from, x_to, out);
  return out;
}

void dl_solution::at_integer_distances(double t, int x_from, int x_to,
                                       std::span<double> out) const {
  if (x_from > x_to)
    throw std::invalid_argument("at_integer_distances: empty range");
  if (out.size() != static_cast<std::size_t>(x_to - x_from + 1))
    throw std::invalid_argument("at_integer_distances: output size mismatch");
  const time_bracket b = bracket_time(t);  // bracket once, not per distance
  for (int x = x_from; x <= x_to; ++x) {
    const double xd = static_cast<double>(x);
    if (!grid_.contains(xd))
      throw std::out_of_range("dl_solution::at: x outside the domain");
    out[static_cast<std::size_t>(x - x_from)] = value_at(xd, b);
  }
}

double dl_solution::max_abs() const {
  double best = 0.0;
  for (double v : states_.data()) best = std::max(best, std::abs(v));
  return best;
}

namespace {

/// The scalar stepping loop over a pre-sampled initial profile (size
/// node_count × blocks): validates the window, dispatches non-line
/// domains to their solvers, and steps the explicit schemes (ftcs,
/// mol_rk4) on the 1-D line.  The line's implicit schemes run on the
/// packed lanes of dl_batch_solver.cpp.
dl_solution solve_profile(const dl_parameters& params,
                          std::span<const double> phi_samples, double t0,
                          double t_end, const dl_solver_options& options,
                          dl_workspace& ws) {
  params.validate();
  const detail::time_loop loop(t0, t_end, options.dt);
  switch (params.dom.kind) {
    case domain_kind::line:
      break;
    case domain_kind::grid2d:
      return detail::solve_dl_grid2d(params, phi_samples, loop, options, ws);
    case domain_kind::communities:
      return detail::solve_dl_communities(params, phi_samples, loop, options,
                                          ws);
  }
  const bool ftcs = options.scheme == dl_scheme::ftcs;
  if (!ftcs && options.scheme != dl_scheme::mol_rk4)
    throw std::logic_error("solve_profile: line " + to_string(options.scheme) +
                           " runs on the packed lanes");
  const std::size_t n = node_count(params, options);
  if (phi_samples.size() != n)
    throw std::invalid_argument("solve_dl: profile size mismatch");

  const num::uniform_grid grid(params.x_min, params.x_max, n);
  const double dx = grid.spacing();

  if (ftcs && params.d > 0.0) {
    const double dt_max = dx * dx / (2.0 * params.d);
    if (options.dt > dt_max)
      throw std::invalid_argument(
          "solve_dl: FTCS unstable for dt > dx^2/(2d) = " +
          std::to_string(dt_max));
  }

  ws.prepare(n);
  std::vector<double>& u = ws.u;
  u.assign(phi_samples.begin(), phi_samples.end());

  // Per-node growth rates.  For separable-form fields — every r(t)-only
  // run and the "spatial:<base>|m,..." family — the rate_sampler hoists
  // the spatial profile out of the time loop: one base evaluation plus n
  // multiplies per step.
  for (std::size_t i = 0; i < n; ++i) ws.node_x[i] = grid.x(i);
  const rate_sampler sampler(params.r, ws.node_x, ws.mod, ws.rate_scratch);

  // Recorded snapshots: one contiguous buffer, reserved up front.
  trace_storage trace(n);
  trace.reserve(loop.max_rows());

  // Hoisted into a std::function once — handing the lambda to rk4_step
  // directly would rebuild (and heap-allocate) the ode_rhs every step.
  const num::ode_rhs reaction = [&](double t, std::span<const double> y,
                                    std::span<double> dydt) {
    neumann_laplacian(y, dx, dydt);
    sampler.rates_at(t, ws.rt_react);
    for (std::size_t i = 0; i < y.size(); ++i)
      dydt[i] = params.d * dydt[i] +
                ws.rt_react[i] * y[i] * (1.0 - y[i] / params.k);
  };

  const auto step = [&](double t, double h) {
    if (ftcs) {
      neumann_laplacian(u, dx, ws.lap);
      sampler.rates_at(t, ws.rt);
      for (std::size_t i = 0; i < n; ++i)
        u[i] += h * (params.d * ws.lap[i] +
                     ws.rt[i] * u[i] * (1.0 - u[i] / params.k));
    } else {
      num::rk4_step(reaction, t, u, h, ws.u_next, ws.rk4);
      u.swap(ws.u_next);
    }
  };
  std::vector<double> times = loop.run(step, [&] { trace.append_row(u); });
  return dl_solution(grid, std::move(times), std::move(trace));
}

}  // namespace

dl_solution detail::solve_request_scalar(const solve_request& request,
                                         dl_workspace& ws) {
  const dl_solver_options& options = request.options;
  const dl_parameters& params = *request.params;
  if (request.phi == nullptr) {
    if (request.phi_samples.empty())
      throw std::invalid_argument("solve_dl: request needs phi or phi_samples");
    return solve_profile(params, request.phi_samples, request.t0,
                         request.t_end, options, ws);
  }
  params.validate();
  const std::size_t n = node_count(params, options);
  // φ at the grid nodes, sampled into the workspace as the packed lanes
  // do, so a warm solve allocates nothing for it.  Densities are
  // non-negative (paper §II.D); a cubic interpolant may undershoot
  // slightly between sparse knots, so clip at zero.
  const num::uniform_grid grid(params.x_min, params.x_max, n);
  ws.phi.resize(n * params.dom.blocks(options.points_per_unit));
  for (std::size_t i = 0; i < n; ++i)
    ws.phi[i] = std::max((*request.phi)(grid.x(i)), 0.0);
  // φ describes the x axis; stack it across a non-line domain's blocks
  // (replicated per grid2d row, scaled per community).
  if (!params.dom.is_line()) detail::broadcast_profile(params, n, ws.phi);
  return solve_profile(params, ws.phi, request.t0, request.t_end, options,
                       ws);
}

}  // namespace dlm::core
