// Batched DL solver: advances a span of solve_requests in lockstep.
//
// Compatible requests — same scheme, grid, dt, record cadence, time
// window and Newton settings — form a group whose W lanes share one time
// loop over the structure-of-arrays dl_batch_workspace (u[node*W + lane]).
// The per-node inner loops then run over W contiguous lanes, so W
// independent Thomas chains interleave (the serial division chain of lane
// A overlaps the multiplies of lanes B..): the Strang–CN forward
// elimination and back substitution, and each implicit-Newton
// iteration's Jacobian solve.
//
// Bitwise identity with the scalar path is the load-bearing contract
// (engine::solve_cache keys, golden fits and CSV output must not depend
// on how requests are grouped).  It holds because every per-lane
// expression below is the scalar solver's expression with `u[i]` spelled
// `u[i*W + l]`: the shared helpers in dl_solver_internal.h supply the
// propagator and matrix entries, each lane's Crank–Nicolson coefficients
// come from the same num::tridiagonal_factorization the scalar path
// solves with, each Newton lane stops at its own convergence (a per-lane
// mask freezes its iterate, so it runs exactly the scalar iteration
// count), and the accumulation order inside every loop is kept verbatim.
// Reordering lanes, changing W, or re-running with a reused workspace
// cannot change a single bit of any lane (solver_batch_test).
//
// Not batched (solved per-request on the scalar path instead): lanes
// that measured no faster than scalar solves — ftcs (0.58–0.85× across
// grids and widths), mol_rk4 (0.68–0.96×) and strang_cn with a spatial
// rate (about 1.0×: its per-node exps cost the same either way) — plus
// non-line domains, requests carrying their own dl_workspace (the caller
// asked for exactly those buffers), and groups of one.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/dl_batch_workspace.h"
#include "core/dl_solver.h"
#include "core/dl_solver_internal.h"
#include "core/dl_workspace.h"
#include "core/rate_field.h"
#include "numerics/grid.h"

namespace dlm::core {
namespace {

/// Everything that must match for two requests to share a lockstep time
/// loop.  The diffusion coefficient d is deliberately absent: lanes with
/// different d share the loop and get per-lane Crank–Nicolson
/// factorizations from the workspace cache (or per-lane Jacobians).
struct group_key {
  dl_scheme scheme = dl_scheme::strang_cn;
  std::size_t n = 0;  ///< grid node count
  double x_min = 0.0;
  double x_max = 0.0;
  double dt = 0.0;
  double record_dt = 0.0;  ///< effective (inf for final_state output)
  double t0 = 0.0;
  double t_end = 0.0;
  int newton_max_iter = 0;
  double newton_tol = 0.0;

  bool operator==(const group_key&) const = default;
};

group_key key_of(const solve_request& request) {
  request.params->validate();
  const dl_solver_options options = detail::effective_options(request);
  return {options.scheme,
          detail::node_count(*request.params, options),
          request.params->x_min,
          request.params->x_max,
          options.dt,
          options.record_dt,
          request.t0,
          request.t_end,
          options.newton_max_iter,
          options.newton_tol};
}

/// Mirrors the scalar path's workspace_guard for the batch workspace.
class batch_guard {
 public:
  explicit batch_guard(dl_batch_workspace& ws) : ws_(ws) { ws_.in_use = true; }
  ~batch_guard() { ws_.in_use = false; }
  batch_guard(const batch_guard&) = delete;
  batch_guard& operator=(const batch_guard&) = delete;

 private:
  dl_batch_workspace& ws_;
};

/// One implicit-Newton time step of W lanes, u → un: backward Euler,
/// un − u − h·(d·A un + r·un·(1 − un/K)) = 0, with the scalar path's
/// Newton iteration widened to W lanes (state node-major, [i*W + l]; `rt`
/// holds r(x_i, t + h) in the same layout).  Each iteration is two passes
/// over the nodes.  The first computes the residual (mirror-ghost
/// Laplacian inline), its max-norm, and the forward elimination of the
/// Jacobian I − h·(d·A + diag(r·(1 − 2un/K))) — solve_tridiagonal_in_place's
/// expressions, W chains interleaved.  The second back-substitutes and
/// applies the update.  A lane whose residual meets the tolerance drops
/// out of the mask and keeps its iterate (its elimination, computed
/// along, is discarded unused), so each lane runs exactly its scalar
/// iteration count; the step ends when every lane has converged or the
/// cap is reached (the scalar path then accepts the last iterate too).
///
/// A plain function rather than a solve_group lambda, with one
/// branch-free lane loop per node row, so the restrict qualifiers reach
/// the loops and they vectorize across lanes; W stays a runtime count,
/// since fully unrolled fixed-width lanes are left scalar.
void newton_step(std::size_t n, std::size_t W, double h, double dx,
                 int max_iter, double tol, const double* __restrict u,
                 double* __restrict un, const double* __restrict rt,
                 const double* __restrict d, const double* __restrict kk,
                 double* __restrict g, double* __restrict cs,
                 double* __restrict lanes) {
  // Per-lane rows of W: residual max-norm, µ = h·d/dx², zero-pivot flag
  // and convergence mask.
  double* __restrict norm = lanes;
  double* __restrict mu = norm + W;
  double* __restrict zero = mu + W;
  double* __restrict active = zero + W;
  const double inv = 1.0 / (dx * dx);

  // Row i of the first pass; `Kind` is 0 for the first row, 1 inside, 2
  // for the last row (the mirrored boundaries double the Laplacian's and
  // the Jacobian's off-diagonal neighbour weight).
  const auto row = [&]<int Kind>(std::size_t i) {
    const double* __restrict ui = u + i * W;
    const double* __restrict vi = un + i * W;
    const double* __restrict ri = rt + i * W;
    double* __restrict ci = cs + i * W;
    double* __restrict gi = g + i * W;
    const double* __restrict vp = Kind > 0 ? vi - W : vi;
    const double* __restrict vn = Kind < 2 ? vi + W : vi;
    const double* __restrict cp = Kind > 0 ? ci - W : ci;
    const double* __restrict gp = Kind > 0 ? gi - W : gi;
    for (std::size_t l = 0; l < W; ++l) {
      const double v = vi[l];
      double lap;
      if constexpr (Kind == 0) {
        lap = 2.0 * (vn[l] - v) * inv;
      } else if constexpr (Kind == 1) {
        lap = (vp[l] - 2.0 * v + vn[l]) * inv;
      } else {
        lap = 2.0 * (vp[l] - v) * inv;
      }
      const double res =
          v - ui[l] - h * (d[l] * lap + ri[l] * v * (1.0 - v / kk[l]));
      norm[l] = std::max(norm[l], std::abs(res));
      const double diag =
          1.0 + 2.0 * mu[l] - h * ri[l] * (1.0 - 2.0 * v / kk[l]);
      if constexpr (Kind == 0) {
        ci[l] = (-mu[l] * 2.0) / diag;
        gi[l] = res / diag;
        zero[l] = diag == 0.0 ? 1.0 : zero[l];
      } else {
        const double lower = -mu[l] * (Kind == 2 ? 2.0 : 1.0);
        const double pivot = diag - lower * cp[l];
        ci[l] = Kind == 1 ? (-mu[l] * 1.0) / pivot : 0.0;
        gi[l] = (res - lower * gp[l]) / pivot;
        zero[l] = pivot == 0.0 ? 1.0 : zero[l];
      }
    }
  };

  std::copy(u, u + n * W, un);  // warm start
  for (std::size_t l = 0; l < W; ++l) active[l] = 1.0;
  for (int it = 0; it < max_iter; ++it) {
    for (std::size_t l = 0; l < W; ++l) {
      norm[l] = 0.0;
      mu[l] = h * d[l] / (dx * dx);
      zero[l] = 0.0;
    }
    row.template operator()<0>(0);
    for (std::size_t i = 1; i + 1 < n; ++i) row.template operator()<1>(i);
    row.template operator()<2>(n - 1);

    bool any = false;
    for (std::size_t l = 0; l < W; ++l) {
      if (norm[l] <= tol) active[l] = 0.0;
      if (active[l] != 0.0 && zero[l] != 0.0)
        throw std::domain_error("solve_tridiagonal: zero pivot");
      any = any || active[l] != 0.0;
    }
    if (!any) return;

    for (std::size_t i = n; i-- > 0;) {
      double* __restrict gi = g + i * W;
      double* __restrict vi = un + i * W;
      if (i + 1 < n) {
        const double* __restrict ci = cs + i * W;
        for (std::size_t l = 0; l < W; ++l) gi[l] -= ci[l] * gi[W + l];
      }
      for (std::size_t l = 0; l < W; ++l)
        vi[l] = active[l] != 0.0 ? vi[l] - gi[l] : vi[l];
    }
  }
}

/// Advances one group of W ≥ 2 compatible requests in lockstep and fills
/// their slots in `solved`.  `members` lists request indices in original
/// request order (grouping is index-stable).
///
/// WC is the lane count when it is one of the specialized widths (the
/// default batch width and its halves) and 0 for the runtime-width
/// fallback: with W a compile-time constant the per-node lane loops fully
/// unroll into straight vector code instead of tiny runtime-trip-count
/// loops whose setup dominates at W = 2..8.  The arithmetic is identical
/// in every instantiation, so specialization cannot change bits.
template <std::size_t WC>
void solve_group(std::span<const solve_request> requests,
                 const group_key& key, std::span<const std::size_t> members,
                 dl_batch_workspace& bws,
                 std::vector<std::optional<dl_solution>>& solved) {
  const std::size_t W = WC == 0 ? members.size() : WC;
  const std::size_t n = key.n;
  const num::uniform_grid grid(key.x_min, key.x_max, n);
  const double dx = grid.spacing();
  bws.prepare(n, W, key.scheme);
  for (std::size_t i = 0; i < n; ++i) bws.node_x[i] = grid.x(i);

  // Per-lane setup: the scalar path's validation (same exceptions),
  // initial data scattered node-major × lane-minor, rate classification.
  std::vector<double> samples;
  for (std::size_t l = 0; l < W; ++l) {
    const solve_request& request = requests[members[l]];
    const dl_parameters& params = *request.params;
    const dl_solver_options options = detail::effective_options(request);
    if (!(request.t_end > request.t0))
      throw std::invalid_argument("solve_dl: t_end must exceed t0");
    if (!(options.dt > 0.0))
      throw std::invalid_argument("solve_dl: dt must be positive");
    if (request.phi != nullptr) {
      samples = request.phi->sample(params.x_min, params.x_max, n);
      // Same clip as the scalar initial-condition overload: densities are
      // non-negative, cubic interpolants may undershoot between knots.
      for (double& v : samples) v = std::max(v, 0.0);
    } else {
      if (request.phi_samples.empty())
        throw std::invalid_argument(
            "solve_dl: request needs phi or phi_samples");
      if (request.phi_samples.size() != n)
        throw std::invalid_argument(
            "solve_dl_profile: profile size mismatch");
      samples.assign(request.phi_samples.begin(), request.phi_samples.end());
    }
    for (std::size_t i = 0; i < n; ++i) bws.u[i * W + l] = samples[i];

    bws.lane_d[l] = params.d;
    bws.lane_k[l] = params.k;
    const rate_field& rate = params.r;
    bws.lane_factored[l] = rate.separable_form() ? 1 : 0;
    if (bws.lane_factored[l])
      for (std::size_t i = 0; i < n; ++i)
        bws.mod_rows[l * n + i] = rate.modulation(bws.node_x[i]);
  }

  // Lane-major rate rows: rate_field::profile writes one contiguous span
  // per lane, and separable-form lanes hoist the spatial profile exactly
  // like the scalar path (one base evaluation + n multiplies).
  const auto lane_row = [&](std::vector<double>& rows, std::size_t l) {
    return std::span<double>(rows.data() + l * n, n);
  };
  const auto rates_lane = [&](std::size_t l, double t, std::span<double> out) {
    const rate_field& rate = requests[members[l]].params->r;
    if (bws.lane_factored[l]) {
      const double base = rate.base()(t);
      const double* mod = bws.mod_rows.data() + l * n;
      for (std::size_t i = 0; i < n; ++i) out[i] = mod[i] * base;
    } else {
      rate.profile(t, bws.node_x, out, bws.rate_scratch);
    }
  };
  // e^∫r over [from, to] of an x-uniform (strang_cn) lane: node 0's
  // integrated rate is every node's, so the scalar path hoists this one
  // exp per substep — the factored expression verbatim.
  const auto growth_lane = [&](std::size_t l, double from, double to) {
    const rate_field& rate = requests[members[l]].params->r;
    return std::exp(bws.mod_rows[l * n] * rate.base().integral(from, to));
  };

  // Per-lane Crank–Nicolson coefficients: one elimination per distinct
  // λ = d·h/dx² (lanes probing the same d share it), scattered into the
  // SoA arrays the interleaved Thomas sweep reads lane-contiguously.
  const auto build_cn = [&](double h) {
    std::size_t used = 0;
    auto& cache = bws.cn_cache;
    for (std::size_t l = 0; l < W; ++l) {
      const double lambda = bws.lane_d[l] * h / (dx * dx);
      std::size_t e = used;
      for (std::size_t j = 0; j < used; ++j) {
        if (cache[j].lambda == lambda) {
          e = j;
          break;
        }
      }
      if (e == used) {
        if (used == cache.size()) cache.emplace_back();
        dl_batch_workspace::cn_entry& entry = cache[used];
        entry.lambda = lambda;
        entry.rhs_m.resize(n);
        bws.cn_lhs.resize(n);
        detail::build_cn_matrices(n, lambda, bws.cn_lhs, entry.rhs_m);
        entry.factor.factor(bws.cn_lhs);
        ++used;
      }
      const dl_batch_workspace::cn_entry& entry = cache[e];
      for (std::size_t i = 0; i < n; ++i) {
        bws.cn_dm[i * W + l] = entry.rhs_m.diag[i];
        bws.cn_fp[i * W + l] = entry.factor.pivots()[i];
      }
      for (std::size_t i = 0; i + 1 < n; ++i) {
        bws.cn_lm[i * W + l] = entry.rhs_m.lower[i];
        bws.cn_um[i * W + l] = entry.rhs_m.upper[i];
        bws.cn_fl[i * W + l] = entry.factor.lower()[i];
        bws.cn_fc[i * W + l] = entry.factor.c_star()[i];
      }
    }
  };
  if (key.scheme == dl_scheme::strang_cn) build_cn(key.dt);

  const auto step_strang = [&](double t, double h) {
    double* g1 = bws.growth1.data();
    double* g2 = bws.growth2.data();
    for (std::size_t l = 0; l < W; ++l) {
      g1[l] = growth_lane(l, t, t + 0.5 * h);
      g2[l] = growth_lane(l, t + 0.5 * h, t + h);
    }
    // Coefficients were scattered for key.dt; rebuild for a short
    // trailing step (the scalar path does the same).
    if (h != key.dt) build_cn(h);

    double* __restrict u = bws.u.data();
    double* __restrict rhs = bws.rhs.data();
    double* __restrict w = bws.w.data();
    double* __restrict vp = bws.v_prev.data();
    double* __restrict vc = bws.v_cur.data();
    double* __restrict vn = bws.v_next.data();
    const double* __restrict dm = bws.cn_dm.data();
    const double* __restrict lm = bws.cn_lm.data();
    const double* __restrict um = bws.cn_um.data();
    const double* __restrict fl = bws.cn_fl.data();
    const double* __restrict fp = bws.cn_fp.data();
    const double* __restrict fc = bws.cn_fc.data();

    // The scalar fused Strang step with every register widened to a
    // W-lane row: reaction values roll through three rows (pointer
    // rotation), the elimination carry is a row, and each lane's
    // accumulation order — dm·v_cur, += lm·v_prev, += um·v_next, the
    // divide, the back substitution — is the scalar sequence verbatim.
    const auto fused = [&](auto&& react1, auto&& react2) {
      for (std::size_t l = 0; l < W; ++l)
        vc[l] = react1(u[l], std::size_t{0}, l);
      for (std::size_t l = 0; l < W; ++l)
        vn[l] = react1(u[W + l], std::size_t{1}, l);
      for (std::size_t l = 0; l < W; ++l) {
        double acc = dm[l] * vc[l];
        acc += um[l] * vn[l];
        w[l] = acc / fp[l];
        rhs[l] = w[l];
      }
      for (std::size_t i = 1; i + 1 < n; ++i) {
        std::swap(vp, vc);
        std::swap(vc, vn);
        for (std::size_t l = 0; l < W; ++l)
          vn[l] = react1(u[(i + 1) * W + l], i + 1, l);
        for (std::size_t l = 0; l < W; ++l) {
          double acc = dm[i * W + l] * vc[l];
          acc += lm[(i - 1) * W + l] * vp[l];
          acc += um[i * W + l] * vn[l];
          w[l] = (acc - fl[(i - 1) * W + l] * w[l]) / fp[i * W + l];
          rhs[i * W + l] = w[l];
        }
      }
      {
        std::swap(vp, vc);
        std::swap(vc, vn);
        for (std::size_t l = 0; l < W; ++l) {
          double acc = dm[(n - 1) * W + l] * vc[l];
          acc += lm[(n - 2) * W + l] * vp[l];
          w[l] = (acc - fl[(n - 2) * W + l] * w[l]) / fp[(n - 1) * W + l];
        }
      }
      // Backward pass: back substitution + second reaction half-step.
      for (std::size_t l = 0; l < W; ++l)
        u[(n - 1) * W + l] = react2(w[l], n - 1, l);
      for (std::size_t i = n - 1; i-- > 0;) {
        for (std::size_t l = 0; l < W; ++l) {
          w[l] = rhs[i * W + l] - fc[i * W + l] * w[l];
          u[i * W + l] = react2(w[l], i, l);
        }
      }
    };

    const double* kk = bws.lane_k.data();
    fused(
        [&](double v, std::size_t, std::size_t l) {
          return detail::logistic_exact_with_growth(v, g1[l], kk[l]);
        },
        [&](double v, std::size_t, std::size_t l) {
          return detail::logistic_exact_with_growth(v, g2[l], kk[l]);
        });
  };

  // Backward Euler by Newton (newton_step), on node-major rates.
  const auto step_newton = [&](double t, double h) {
    for (std::size_t l = 0; l < W; ++l)
      rates_lane(l, t + h, lane_row(bws.rt_rows, l));
    double* rt = bws.rhs.data();
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t l = 0; l < W; ++l) rt[i * W + l] = bws.rt_rows[l * n + i];
    newton_step(n, W, h, dx, key.newton_max_iter, key.newton_tol, bws.u.data(),
                bws.u_next.data(), rt, bws.lane_d.data(), bws.lane_k.data(),
                bws.newton_g.data(), bws.newton_c.data(),
                bws.newton_lanes.data());
    bws.u.swap(bws.u_next);
  };

  // Shared record bookkeeping — the scalar path's, once for all lanes.
  const std::size_t total_steps = static_cast<std::size_t>(
      std::ceil((key.t_end - key.t0) / key.dt - 1e-12));
  std::size_t max_records = total_steps;
  if (key.record_dt > 0.0) {
    const double est = (key.t_end - key.t0) / key.record_dt;
    if (est < static_cast<double>(total_steps))
      max_records = static_cast<std::size_t>(est) + 1;
  }
  std::vector<double> times;
  times.reserve(max_records + 2);
  std::vector<trace_storage> traces;
  traces.reserve(W);
  for (std::size_t l = 0; l < W; ++l) {
    traces.emplace_back(n);
    traces.back().reserve(max_records + 2);
  }
  const auto record = [&]() {
    for (std::size_t l = 0; l < W; ++l) {
      for (std::size_t i = 0; i < n; ++i) bws.row[i] = bws.u[i * W + l];
      traces[l].append_row(bws.row);
    }
  };
  times.push_back(key.t0);
  record();
  double next_record = key.t0 + key.record_dt;

  for (std::size_t step = 0; step < total_steps; ++step) {
    const double t = key.t0 + static_cast<double>(step) * key.dt;
    const double h = std::min(key.dt, key.t_end - t);
    if (h <= 0.0) break;
    if (key.scheme == dl_scheme::strang_cn)
      step_strang(t, h);
    else
      step_newton(t, h);
    const double t_new = t + h;
    if (t_new + 1e-12 >= next_record || step + 1 == total_steps) {
      times.push_back(t_new);
      record();
      while (next_record <= t_new + 1e-12) next_record += key.record_dt;
    }
  }

  for (std::size_t l = 0; l < W; ++l)
    solved[members[l]] = dl_solution(grid, times, std::move(traces[l]));
}

}  // namespace

std::vector<dl_solution> solve_dl(std::span<const solve_request> requests,
                                  dl_batch_workspace& workspace) {
  const batch_guard guard(workspace);
  std::vector<std::optional<dl_solution>> solved(requests.size());

  // Index-stable grouping: groups form in first-occurrence order and
  // list members in request order, so results (and any exception) never
  // depend on how the caller interleaved compatible requests.
  struct group {
    group_key key;
    std::vector<std::size_t> members;
  };
  std::vector<group> groups;
  std::vector<std::size_t> scalar_lanes;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const solve_request& request = requests[i];
    if (request.params == nullptr)
      throw std::invalid_argument("solve_dl: request has no parameters");
    const dl_scheme scheme = request.options.scheme;
    const bool lanes_win =
        scheme == dl_scheme::implicit_newton ||
        (scheme == dl_scheme::strang_cn && !request.params->r.spatial());
    if (request.workspace != nullptr || !lanes_win ||
        !request.params->dom.is_line()) {
      // Non-line domains (2-D ADI, coupled communities) have their own
      // stepping loops; they run scalar rather than in SoA lockstep.
      scalar_lanes.push_back(i);
      continue;
    }
    const group_key key = key_of(request);
    const auto it = std::find_if(
        groups.begin(), groups.end(),
        [&](const group& g) { return g.key == key; });
    if (it == groups.end())
      groups.push_back({key, {i}});
    else
      it->members.push_back(i);
  }

  for (const group& g : groups) {
    switch (g.members.size()) {
      case 1:
        solved[g.members.front()] = detail::solve_request_scalar(
            requests[g.members.front()], workspace.scalar);
        break;
      case 2:
        solve_group<2>(requests, g.key, g.members, workspace, solved);
        break;
      case 4:
        solve_group<4>(requests, g.key, g.members, workspace, solved);
        break;
      case 8:
        solve_group<8>(requests, g.key, g.members, workspace, solved);
        break;
      default:
        solve_group<0>(requests, g.key, g.members, workspace, solved);
        break;
    }
  }
  for (const std::size_t i : scalar_lanes) {
    const solve_request& request = requests[i];
    solved[i] = detail::solve_request_scalar(
        request,
        request.workspace != nullptr ? *request.workspace : workspace.scalar);
  }

  std::vector<dl_solution> out;
  out.reserve(requests.size());
  for (std::optional<dl_solution>& s : solved) out.push_back(std::move(*s));
  return out;
}

std::vector<dl_solution> solve_dl(std::span<const solve_request> requests) {
  dl_batch_workspace& shared = thread_batch_workspace();
  if (shared.in_use) {
    // Reentrant batched solve (e.g. a custom rate field that itself runs
    // the solver): don't clobber the outer batch's live lanes.
    dl_batch_workspace local;
    return solve_dl(requests, local);
  }
  return solve_dl(requests, shared);
}

}  // namespace dlm::core
