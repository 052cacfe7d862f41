// Batched DL solver: advances a span of solve_requests in lockstep.
//
// Compatible requests — same scheme, grid, dt, time window, Newton
// settings and, for Strang–CN, growth shape — form a group, solved in
// chunks of at most eight lanes.  A chunk's lanes share one time loop
// over the structure-of-arrays dl_batch_workspace (u[node*W + lane]),
// and its lane kernels — the fused Strang–CN step and the
// implicit-Newton step — run on an explicit two-double vector type (the
// SSE2 baseline register): a chunk is P = 1..4 packs of two lanes, so
// each divide is one divpd for two lanes, and the P independent Thomas
// chains interleave (the division chain of one pack overlaps the
// arithmetic of the others).  An odd chunk — a single request among
// them — pads its last pack with a copy of its last lane, whose result
// is discarded.  These kernels are the only Strang–CN and
// implicit-Newton implementation on the line.
//
// Bitwise independence of grouping is the load-bearing contract
// (engine::solve_cache keys, golden fits and CSV output must not depend
// on how requests are grouped).  It holds because every vector operator
// is the per-lane IEEE operation and no lane reads another's values: the
// propagator's `n <= 0 ? n : propagated` is a vector select,
// std::max(a, b) is `a < b ? b : a`, std::abs is a sign-bit clear, each
// lane's Crank–Nicolson coefficients come from its own
// num::tridiagonal_factorization, each Newton lane stops at its own
// convergence (a per-lane mask freezes its iterate, so it runs exactly
// its own iteration count), and the accumulation order inside every
// loop is fixed.  The library builds with -ffp-contract=off, so no
// -march can fuse a multiply-add into an FMA.  Reordering lanes,
// changing the width, or re-running with a reused workspace cannot
// change a single bit of any lane (solver_batch_test), and the golden
// hashes of domain_solver_test pin the bits themselves.
//
// Not batched (solved per-request on the scalar path instead): ftcs
// (0.58–0.85× across grids and widths), mol_rk4 (0.68–0.96×) and the
// non-line domains, which have their own stepping loops.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
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
  double t0 = 0.0;
  double t_end = 0.0;
  int newton_max_iter = 0;
  double newton_tol = 0.0;
  /// Strang–CN with a rate that varies in x: each lane carries one
  /// integrated rate per node instead of one growth factor.
  bool per_node = false;

  bool operator==(const group_key&) const = default;
};

group_key key_of(const solve_request& request) {
  request.params->validate();
  const dl_solver_options& options = request.options;
  return {options.scheme,
          detail::node_count(*request.params, options),
          request.params->x_min,
          request.params->x_max,
          options.dt,
          request.t0,
          request.t_end,
          options.newton_max_iter,
          options.newton_tol,
          options.scheme == dl_scheme::strang_cn &&
              request.params->r.spatial()};
}

/// Marks the batch workspace busy for the duration of a solve, so a
/// reentrant solve on the same thread falls back to a private workspace
/// instead of clobbering live buffers.
class batch_guard {
 public:
  explicit batch_guard(dl_batch_workspace& ws) : ws_(ws) { ws_.in_use = true; }
  ~batch_guard() { ws_.in_use = false; }
  batch_guard(const batch_guard&) = delete;
  batch_guard& operator=(const batch_guard&) = delete;

 private:
  dl_batch_workspace& ws_;
};

/// Two lanes of doubles: the SSE2 baseline vector register.  Every
/// operator on it is the per-lane IEEE operation, so a lane of a v2d
/// expression rounds exactly like the scalar expression it spells.
using v2d = double __attribute__((vector_size(16)));
/// Lane mask of a v2d comparison: all ones (true) or zero per lane.
using v2m = decltype(v2d{} < v2d{});

/// A chunk runs at most this many packs of two lanes in lockstep.
constexpr std::size_t kMaxPacks = 4;
constexpr std::size_t kMaxLanes = 2 * kMaxPacks;

/// Two-lane load/store through memcpy: no alignment or aliasing
/// assumption on the workspace's double buffers.
v2d load(const double* p) {
  v2d v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(double* p, v2d v) { std::memcpy(p, &v, sizeof v); }

/// std::abs as a sign-bit clear (what the scalar call compiles to).
v2d abs(v2d x) {
  return std::bit_cast<v2d>(std::bit_cast<v2m>(x) &
                            std::numeric_limits<std::int64_t>::max());
}

/// std::max(a, b) verbatim: `a < b ? b : a` (so a NaN b keeps a).
v2d max(v2d a, v2d b) { return a < b ? b : a; }

bool any(v2m m) { return (m[0] | m[1]) != 0; }

/// detail::logistic_exact_with_growth, two lanes at a time.
v2d logistic(v2d n, v2d growth, v2d k) {
  const v2d propagated = k * n * growth / (k + n * (growth - 1.0));
  return n <= 0.0 ? n : propagated;
}

/// One fused Strang–CN step of a chunk of P packs (W = 2·P lanes, state
/// u[i*W + l]): detail::strang_cn_fused_step with every register widened
/// to P two-lane packs.  Reaction values roll through three registers
/// per pack and the elimination carry is a register per pack, so the P
/// serial division chains interleave; each lane's accumulation order —
/// dm·v_cur, += lm·v_prev, += um·v_next, the divide, the back
/// substitution — is strang_cn_fused_step's sequence.  Reads the per-lane
/// CN coefficients, reaction data and K from the workspace; `rhs` holds
/// the eliminated rows between the passes.
///
/// The reaction half-steps take growth factors e^∫r.  An x-uniform chunk
/// reads one per lane (held in a register per pack).  A PerNode chunk
/// reads each lane's row of integrated rates ∫r(x_i) (lane-major, as
/// rate_field writes them) and takes their exps here, inside the passes:
/// out-of-order execution then overlaps them with the serial division
/// chain, where a separate exp pass before the kernel measured about
/// 30% slower on one lane.  When `pad` is set the chunk is odd, and the
/// last pack's second lane copies its first lane's factor (the pad
/// lane's row is never read), so a step takes exactly one exp per node
/// and half-step for each real lane, as logistic_exact does.
template <std::size_t P, bool PerNode>
void strang_step(dl_batch_workspace& bws, std::size_t n, bool pad) {
  constexpr std::size_t W = 2 * P;
  double* const u = bws.u.data();
  double* const rhs = bws.rhs.data();
  const double* const dm = bws.cn_dm.data();
  const double* const lm = bws.cn_lm.data();
  const double* const um = bws.cn_um.data();
  const double* const fl = bws.cn_fl.data();
  const double* const fp = bws.cn_fp.data();
  const double* const fc = bws.cn_fc.data();
  const double* const growth1 = bws.growth1.data();
  const double* const growth2 = bws.growth2.data();

  v2d g1[P], g2[P], k[P], vc[P], vn[P], w[P];
  // Growth factors of pack p at node i.
  const auto exp_pack = [&](const double* rates, std::size_t i,
                            std::size_t p) {
    const double* row = rates + 2 * p * n + i;
    const double e0 = std::exp(row[0]);
    return v2d{e0, pad && p + 1 == P ? e0 : std::exp(row[n])};
  };
  const auto first = [&](std::size_t i, std::size_t p) {
    if constexpr (PerNode) return exp_pack(growth1, i, p);
    return g1[p];
  };
  const auto second = [&](std::size_t i, std::size_t p) {
    if constexpr (PerNode) return exp_pack(growth2, i, p);
    return g2[p];
  };
  for (std::size_t p = 0; p < P; ++p) {
    const std::size_t l = 2 * p;
    if constexpr (!PerNode) {
      g1[p] = load(growth1 + l);
      g2[p] = load(growth2 + l);
    }
    k[p] = load(bws.lane_k.data() + l);
    vc[p] = logistic(load(u + l), first(0, p), k[p]);
    vn[p] = logistic(load(u + W + l), first(1, p), k[p]);
    v2d acc = load(dm + l) * vc[p];
    acc += load(um + l) * vn[p];
    w[p] = acc / load(fp + l);
    store(rhs + l, w[p]);
  }
  for (std::size_t i = 1; i + 1 < n; ++i) {
    for (std::size_t p = 0; p < P; ++p) {
      const std::size_t at = i * W + 2 * p;
      const v2d vp = vc[p];
      vc[p] = vn[p];
      vn[p] = logistic(load(u + at + W), first(i + 1, p), k[p]);
      v2d acc = load(dm + at) * vc[p];
      acc += load(lm + at - W) * vp;
      acc += load(um + at) * vn[p];
      w[p] = (acc - load(fl + at - W) * w[p]) / load(fp + at);
      store(rhs + at, w[p]);
    }
  }
  for (std::size_t p = 0; p < P; ++p) {
    const std::size_t at = (n - 1) * W + 2 * p;
    v2d acc = load(dm + at) * vn[p];
    acc += load(lm + at - W) * vc[p];
    w[p] = (acc - load(fl + at - W) * w[p]) / load(fp + at);
    // Backward pass: back substitution + second reaction half-step.
    store(u + at, logistic(w[p], second(n - 1, p), k[p]));
  }
  for (std::size_t i = n - 1; i-- > 0;) {
    for (std::size_t p = 0; p < P; ++p) {
      const std::size_t at = i * W + 2 * p;
      w[p] = load(rhs + at) - load(fc + at) * w[p];
      store(u + at, logistic(w[p], second(i, p), k[p]));
    }
  }
}

/// One implicit-Newton time step of a chunk of P packs, u → u_next:
/// backward Euler, un − u − h·(d·A un + r·un·(1 − un/K)) = 0, solved by
/// Newton's method on P two-lane packs (`rhs` holds r(x_i, t + h)
/// node-major).  Each iteration is two passes over the nodes.  The first
/// computes the residual (mirror-ghost Laplacian inline), its max-norm,
/// and the forward elimination of the Jacobian
/// I − h·(d·A + diag(r·(1 − 2un/K))) — solve_tridiagonal_in_place's
/// expressions, P chains interleaved.  The second back-substitutes and
/// applies the update.  A lane whose residual meets the tolerance drops
/// out of the mask and keeps its iterate (its elimination, computed
/// along, is discarded unused), so each lane runs exactly the iteration
/// count it would run alone; the step ends when every lane has converged
/// or the cap is reached, and then accepts the last iterate (the step
/// size is small enough in practice that Newton stalls only at
/// negligible residuals).
template <std::size_t P>
void newton_step(dl_batch_workspace& bws, std::size_t n, double h, double dx,
                 int max_iter, double tol) {
  constexpr std::size_t W = 2 * P;
  const double* const u = bws.u.data();
  double* const un = bws.u_next.data();
  const double* const rt = bws.rhs.data();
  double* const g = bws.newton_g.data();
  double* const cs = bws.newton_c.data();
  const double inv = 1.0 / (dx * dx);

  // Per-pack d, K, µ = h·d/dx² and convergence mask.
  v2d d[P], k[P], mu[P];
  v2m active[P];
  for (std::size_t p = 0; p < P; ++p) {
    d[p] = load(bws.lane_d.data() + 2 * p);
    k[p] = load(bws.lane_k.data() + 2 * p);
    mu[p] = h * d[p] / (dx * dx);
    active[p] = v2m{} - 1;
  }
  const auto residual = [&](std::size_t at, std::size_t p, v2d v, v2d lap) {
    return v - load(u + at) -
           h * (d[p] * lap + load(rt + at) * v * (1.0 - v / k[p]));
  };
  const auto jacobian_diag = [&](std::size_t at, std::size_t p, v2d v) {
    return 1.0 + 2.0 * mu[p] - h * load(rt + at) * (1.0 - 2.0 * v / k[p]);
  };

  std::copy(u, u + n * W, un);  // warm start
  for (int it = 0; it < max_iter; ++it) {
    // Rolling iterate values (current / next node), the residual norm,
    // the zero-pivot flag and the elimination carries.
    v2d vc[P], vn[P], norm[P], cp[P], gp[P];
    v2m zero[P];
    for (std::size_t p = 0; p < P; ++p) {
      const std::size_t at = 2 * p;
      vc[p] = load(un + at);
      vn[p] = load(un + at + W);
      const v2d res = residual(at, p, vc[p], 2.0 * (vn[p] - vc[p]) * inv);
      norm[p] = max(v2d{}, abs(res));
      const v2d diag = jacobian_diag(at, p, vc[p]);
      cp[p] = (-mu[p] * 2.0) / diag;
      gp[p] = res / diag;
      zero[p] = diag == 0.0;
      store(cs + at, cp[p]);
      store(g + at, gp[p]);
    }
    for (std::size_t i = 1; i + 1 < n; ++i) {
      for (std::size_t p = 0; p < P; ++p) {
        const std::size_t at = i * W + 2 * p;
        const v2d vp = vc[p];
        vc[p] = vn[p];
        vn[p] = load(un + at + W);
        const v2d res =
            residual(at, p, vc[p], (vp - 2.0 * vc[p] + vn[p]) * inv);
        norm[p] = max(norm[p], abs(res));
        const v2d lower = -mu[p] * 1.0;
        const v2d pivot = jacobian_diag(at, p, vc[p]) - lower * cp[p];
        cp[p] = lower / pivot;  // interior rows: upper = lower = −µ
        gp[p] = (res - lower * gp[p]) / pivot;
        zero[p] |= pivot == 0.0;
        store(cs + at, cp[p]);
        store(g + at, gp[p]);
      }
    }
    bool live = false;
    bool failed = false;
    for (std::size_t p = 0; p < P; ++p) {
      const std::size_t at = (n - 1) * W + 2 * p;
      const v2d res = residual(at, p, vn[p], 2.0 * (vc[p] - vn[p]) * inv);
      norm[p] = max(norm[p], abs(res));
      const v2d lower = -mu[p] * 2.0;
      const v2d pivot = jacobian_diag(at, p, vn[p]) - lower * cp[p];
      gp[p] = (res - lower * gp[p]) / pivot;
      zero[p] |= pivot == 0.0;
      active[p] &= ~(norm[p] <= tol);
      live = live || any(active[p]);
      failed = failed || any(active[p] & zero[p]);
    }
    if (failed) throw std::domain_error("solve_tridiagonal: zero pivot");
    if (!live) return;

    // Back substitution, the elimination carry in a register per pack.
    for (std::size_t p = 0; p < P; ++p) {
      const std::size_t at = (n - 1) * W + 2 * p;
      store(un + at, active[p] ? vn[p] - gp[p] : vn[p]);
    }
    for (std::size_t i = n - 1; i-- > 0;) {
      for (std::size_t p = 0; p < P; ++p) {
        const std::size_t at = i * W + 2 * p;
        gp[p] = load(g + at) - load(cs + at) * gp[p];
        const v2d v = load(un + at);
        store(un + at, active[p] ? v - gp[p] : v);
      }
    }
  }
}

using strang_kernel = void (*)(dl_batch_workspace&, std::size_t, bool);
using newton_kernel = void (*)(dl_batch_workspace&, std::size_t, double,
                               double, int, double);
/// Indexed [per_node][packs − 1].
constexpr strang_kernel kStrangKernels[2][kMaxPacks] = {
    {strang_step<1, false>, strang_step<2, false>, strang_step<3, false>,
     strang_step<4, false>},
    {strang_step<1, true>, strang_step<2, true>, strang_step<3, true>,
     strang_step<4, true>}};
constexpr newton_kernel kNewtonKernels[kMaxPacks] = {
    newton_step<1>, newton_step<2>, newton_step<3>, newton_step<4>};

/// Advances one chunk of 1..kMaxLanes compatible requests in lockstep
/// and fills their slots in `solved`.  `members` lists request indices
/// in original request order (grouping is index-stable).  The chunk
/// runs as P = ⌈lanes/2⌉ packs; an odd chunk pads its last pack with a
/// copy of its last lane, whose result is discarded — a copy runs the
/// same arithmetic, so it adds no Newton iteration and no new throw.
void solve_group(std::span<const solve_request> requests,
                 const group_key& key, std::span<const std::size_t> members,
                 dl_batch_workspace& bws,
                 std::vector<std::optional<dl_solution>>& solved) {
  const std::size_t lanes = members.size();
  const std::size_t packs = (lanes + 1) / 2;
  const std::size_t W = 2 * packs;
  const auto member = [&](std::size_t l) {
    return members[std::min(l, lanes - 1)];
  };
  const std::size_t n = key.n;
  const num::uniform_grid grid(key.x_min, key.x_max, n);
  const double dx = grid.spacing();
  bws.prepare(n, W, key.scheme);
  for (std::size_t i = 0; i < n; ++i) bws.node_x[i] = grid.x(i);

  // Window validation, once for the group's shared window.
  const detail::time_loop loop(key.t0, key.t_end, key.dt);

  // Lane-major rows, size W·n: rate_field writes one contiguous span per
  // lane.
  const auto lane_row = [&](std::vector<double>& rows, std::size_t l) {
    return std::span<double>(rows.data() + l * n, n);
  };

  // Per-lane setup: initial data scattered node-major × lane-minor, and
  // each real lane's rate sampler (separable-form rates hoist their
  // spatial profile into the lane's mod row).
  std::optional<detail::rate_sampler> samplers[kMaxLanes];
  for (std::size_t l = 0; l < W; ++l) {
    const solve_request& request = requests[member(l)];
    const dl_parameters& params = *request.params;
    if (request.phi != nullptr) {
      // φ at the grid nodes, clipped at zero: densities are non-negative
      // (paper §II.D), and a cubic interpolant may undershoot slightly
      // between sparse knots.
      for (std::size_t i = 0; i < n; ++i)
        bws.u[i * W + l] = std::max((*request.phi)(bws.node_x[i]), 0.0);
    } else {
      if (request.phi_samples.empty())
        throw std::invalid_argument(
            "solve_dl: request needs phi or phi_samples");
      if (request.phi_samples.size() != n)
        throw std::invalid_argument("solve_dl: profile size mismatch");
      for (std::size_t i = 0; i < n; ++i)
        bws.u[i * W + l] = request.phi_samples[i];
    }
    bws.lane_d[l] = params.d;
    bws.lane_k[l] = params.k;
    if (l < lanes)
      samplers[l].emplace(params.r, bws.node_x, lane_row(bws.mod_rows, l),
                          bws.rate_scratch);
  }

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
  if (key.scheme == dl_scheme::strang_cn) build_cn(loop.first_step());

  // Reaction data of a half-step over [from, to] for strang_step.  An
  // x-uniform lane (the temporal family, m ≡ 1) takes one exp of its
  // hoisted integral, and the pad lane of an odd chunk reads its source
  // lane's factor.  A per-node lane writes its row of ∫r(x_i), and the
  // kernel takes the exps: exp(∫r) is the value logistic_exact computes
  // per node, so both spellings of the propagator are one IEEE sequence.
  const auto fill_reaction = [&](double from, double to,
                                 std::vector<double>& out) {
    for (std::size_t l = 0; l < lanes; ++l) {
      if (key.per_node) {
        samplers[l]->integrals_over(from, to, lane_row(out, l));
      } else {
        const rate_field& rate = requests[member(l)].params->r;
        out[l] = std::exp(bws.mod_rows[l * n] * rate.base().integral(from, to));
      }
    }
    if (W > lanes && !key.per_node) out[lanes] = out[lanes - 1];
  };
  const auto step_strang = [&](double t, double h) {
    fill_reaction(t, t + 0.5 * h, bws.growth1);
    fill_reaction(t + 0.5 * h, t + h, bws.growth2);
    // Coefficients were scattered for the first step; rebuild for a short
    // trailing step.
    if (h != loop.first_step()) build_cn(h);
    kStrangKernels[key.per_node][packs - 1](bws, n, W > lanes);
  };

  // Backward Euler by Newton (newton_step), on node-major rates.
  const auto step_newton = [&](double t, double h) {
    for (std::size_t l = 0; l < lanes; ++l)
      samplers[l]->rates_at(t + h, lane_row(bws.rt_rows, l));
    double* rt = bws.rhs.data();
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t l = 0; l < W; ++l)
        rt[i * W + l] = bws.rt_rows[std::min(l, lanes - 1) * n + i];
    kNewtonKernels[packs - 1](bws, n, h, dx, key.newton_max_iter,
                              key.newton_tol);
    bws.u.swap(bws.u_next);
  };

  // One time loop and record cadence for all lanes.
  std::vector<trace_storage>& traces = bws.traces;
  traces.clear();
  for (std::size_t l = 0; l < lanes; ++l) {
    traces.emplace_back(n);
    traces.back().reserve(loop.max_rows());
  }
  const auto record = [&]() {
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t i = 0; i < n; ++i) bws.row[i] = bws.u[i * W + l];
      traces[l].append_row(bws.row);
    }
  };
  std::vector<double> times = loop.run(
      [&](double t, double h) {
        if (key.scheme == dl_scheme::strang_cn)
          step_strang(t, h);
        else
          step_newton(t, h);
      },
      record);

  for (std::size_t l = 0; l + 1 < lanes; ++l)
    solved[members[l]] = dl_solution(grid, times, std::move(traces[l]));
  solved[members[lanes - 1]] =
      dl_solution(grid, std::move(times), std::move(traces[lanes - 1]));
}

/// solve_dl(span) on the given batch workspace.
std::vector<dl_solution> solve_on(std::span<const solve_request> requests,
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
    if (!request.params->dom.is_line() || scheme == dl_scheme::ftcs ||
        scheme == dl_scheme::mol_rk4) {
      // The explicit schemes step the scalar loop; non-line domains (2-D
      // ADI, coupled communities) have their own stepping loops.
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

  // Groups run in chunks of at most kMaxLanes lanes.
  for (const group& g : groups) {
    const std::span<const std::size_t> members(g.members);
    for (std::size_t at = 0; at < members.size(); at += kMaxLanes)
      solve_group(requests, g.key,
                  members.subspan(at, std::min(kMaxLanes, members.size() - at)),
                  workspace, solved);
  }
  for (const std::size_t i : scalar_lanes)
    solved[i] = detail::solve_request_scalar(requests[i], workspace.scalar);

  std::vector<dl_solution> out;
  out.reserve(requests.size());
  for (std::optional<dl_solution>& s : solved) out.push_back(std::move(*s));
  return out;
}

}  // namespace

std::vector<dl_solution> solve_dl(std::span<const solve_request> requests) {
  dl_batch_workspace& shared = thread_batch_workspace();
  if (shared.in_use) {
    // Reentrant solve on this thread: don't clobber the outer solve's
    // live buffers.
    dl_batch_workspace local;
    return solve_on(requests, local);
  }
  return solve_on(requests, shared);
}

dl_solution solve_dl(const solve_request& request) {
  return std::move(solve_dl(std::span(&request, 1)).front());
}

}  // namespace dlm::core
