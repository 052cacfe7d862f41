// Shared internals of the packed line, scalar and domain DL solvers.
//
// The coupled-community domain solver (dl_domain_solver.cpp) must be
// *bitwise identical* at K = 1 to the plain 1-D line, which runs on the
// packed lanes (dl_batch_solver.cpp): every per-node expression — the
// exact logistic propagator, the Crank–Nicolson matrix entries, the fused
// Strang–CN sweep, the per-node rate evaluation, the node-count rounding,
// the time loop's step times and snapshot cadence — has to be the same
// IEEE operation sequence in every translation unit.  Keeping them as
// shared inline helpers makes that a structural property instead of a
// copy-paste invariant.
//
// Not part of the public API: include only from src/core solver sources
// (and white-box tests).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/dl_parameters.h"
#include "core/dl_solver.h"
#include "numerics/tridiagonal.h"

namespace dlm::core {

struct dl_workspace;

namespace detail {

/// Solves one request on the scalar path with the given workspace: what
/// the batched solver does for every request its lanes do not take (ftcs
/// and mol_rk4 on the line, non-line domains).  Defined in dl_solver.cpp.
[[nodiscard]] dl_solution solve_request_scalar(const solve_request& request,
                                               dl_workspace& ws);

/// The time loop every solver steps: the step count, the step times and
/// the hourly snapshot cadence, spelled once.  Step k starts at
/// t0 + k·dt and lasts min(dt, t_end − t); a snapshot is recorded at t0,
/// after each step that reaches the next whole hour after t0, and after
/// the last step.  There is always at least one step: a dt at or beyond
/// the window takes one step of the whole window.
class time_loop {
 public:
  /// Throws std::invalid_argument unless t_end > t0, dt > 0 and the step
  /// count (t_end − t0)/dt is finite and below 2^53.
  time_loop(double t0, double t_end, double dt)
      : t0_(t0), t_end_(t_end), dt_(dt) {
    if (!(t_end > t0))
      throw std::invalid_argument("solve_dl: t_end must exceed t0");
    if (!(dt > 0.0))
      throw std::invalid_argument("solve_dl: dt must be positive");
    if (!((t_end - t0) / dt < 0x1p53))
      throw std::invalid_argument(
          "solve_dl: step count (t_end - t0)/dt must be finite and below "
          "2^53");
    steps_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil((t_end - t0) / dt - 1e-12)));
    // Snapshot rows to reserve, so steady-state stepping never
    // reallocates the trace.
    rows_ = steps_;
    const double hours = t_end - t0;
    if (hours < static_cast<double>(steps_))
      rows_ = static_cast<std::size_t>(hours) + 1;
    rows_ += 2;
  }

  /// Upper bound on the snapshots run() records.
  [[nodiscard]] std::size_t max_rows() const noexcept { return rows_; }

  /// The length of the first step, min(dt, t_end − t0): what a scheme
  /// with per-step matrices (Crank–Nicolson) builds them for up front.
  [[nodiscard]] double first_step() const noexcept {
    return std::min(dt_, t_end_ - t0_);
  }

  /// Steps the window and returns the snapshot times: record() stores
  /// the current state once at t0 and again at each snapshot after a
  /// step(t, h) call.
  template <class Step, class Record>
  std::vector<double> run(Step&& step, Record&& record) const {
    std::vector<double> times;
    times.reserve(rows_);
    times.push_back(t0_);
    record();
    double next_record = t0_ + kRecordHours;
    for (std::size_t k = 0; k < steps_; ++k) {
      const double t = t0_ + static_cast<double>(k) * dt_;
      const double h = std::min(dt_, t_end_ - t);
      if (h <= 0.0) break;
      step(t, h);
      const double t_new = t + h;
      if (t_new + 1e-12 >= next_record || k + 1 == steps_) {
        times.push_back(t_new);
        record();
        while (next_record <= t_new + 1e-12) next_record += kRecordHours;
      }
    }
    return times;
  }

 private:
  static constexpr double kRecordHours = 1.0;  ///< snapshot cadence

  double t0_;
  double t_end_;
  double dt_;
  std::size_t steps_ = 0;
  std::size_t rows_ = 0;
};

/// Exact logistic propagator: N ← K·N·e^R / (K + N·(e^R − 1)) where R is
/// the integrated rate over the step.  Maps [0, K] into [0, K] for R ≥ 0.
inline double logistic_exact(double n, double integrated_rate, double k) {
  if (n <= 0.0) return n;
  const double growth = std::exp(integrated_rate);
  return k * n * growth / (k + n * (growth - 1.0));
}

/// Same propagator with e^R precomputed — for fields constant in x, every
/// node shares one integrated rate, so the exp is hoisted out of the node
/// loop (bitwise identical: exp of the same value is the same value; for
/// fields that vary in x the packed lanes take it per node in their
/// passes).
/// Spelled as a select rather than an early return, like the packed
/// lanes' two-lane `logistic` (dl_batch_solver.cpp); for n ≤ 0 the
/// speculative IEEE division is well-defined and discarded, and the n > 0
/// expression is the same operation sequence either way.
inline double logistic_exact_with_growth(double n, double growth, double k) {
  const double propagated = k * n * growth / (k + n * (growth - 1.0));
  return n <= 0.0 ? n : propagated;
}

/// Grid node count implied by the domain and resolution.
inline std::size_t node_count(const dl_parameters& params,
                              const dl_solver_options& options) {
  const double units = params.x_max - params.x_min;
  const auto intervals = static_cast<std::size_t>(
      std::lround(units * static_cast<double>(options.points_per_unit)));
  if (intervals == 0)
    throw std::invalid_argument("dl_solver: domain shorter than one cell");
  return intervals + 1;
}

/// CN diffusion matrices: lhs = I − (λ/2)A, rhs-matrix = I + (λ/2)A with
/// the mirror-ghost Neumann Laplacian A (dx² folded into λ).
inline void build_cn_matrices(std::size_t n, double lambda,
                              num::tridiagonal_matrix& lhs,
                              num::tridiagonal_matrix& rhs) {
  for (std::size_t i = 0; i < n; ++i) {
    double off_l = 1.0, off_r = 1.0;
    if (i == 0) off_r = 2.0;
    if (i + 1 == n) off_l = 2.0;
    lhs.diag[i] = 1.0 + lambda;
    rhs.diag[i] = 1.0 - lambda;
    if (i + 1 < n) {
      lhs.upper[i] = -0.5 * lambda * off_r;
      rhs.upper[i] = 0.5 * lambda * off_r;
    }
    if (i > 0) {
      lhs.lower[i - 1] = -0.5 * lambda * off_l;
      rhs.lower[i - 1] = 0.5 * lambda * off_l;
    }
  }
}

/// Per-node growth-rate evaluation with the separable-form hoist.  The
/// packed lanes (one sampler per lane), the scalar loop and the domain
/// solvers all sample r(x_i, t) and ∫ r(x_i, s) ds through this one
/// struct, so a K = 1 community run evaluates exactly the operation
/// sequence of the plain 1-D path.
class rate_sampler {
 public:
  /// `node_x` are the x coordinates to sample at; `mod` is caller scratch
  /// of the same size (the hoisted spatial profile m(x_i) of a
  /// separable-form field); `scratch` backs the per-group family's table.
  rate_sampler(const rate_field& rate, std::span<const double> node_x,
               std::span<double> mod, std::vector<double>& scratch)
      : rate_(rate),
        node_x_(node_x),
        mod_(mod),
        scratch_(scratch),
        factored_(rate.separable_form()),
        uniform_(!rate.spatial()) {
    if (factored_) {
      for (std::size_t i = 0; i < node_x_.size(); ++i)
        mod_[i] = rate_.modulation(node_x_[i]);
    }
  }

  /// True when every node shares one rate (the temporal family), so the
  /// Strang logistic substep computes a single exp per substep.
  [[nodiscard]] bool uniform() const noexcept { return uniform_; }

  /// r(x_i, t) for every node into `out`.
  void rates_at(double t, std::span<double> out) const {
    if (factored_) {
      const double base = rate_.base()(t);
      for (std::size_t i = 0; i < node_x_.size(); ++i) out[i] = mod_[i] * base;
    } else {
      rate_.profile(t, node_x_, out, scratch_);
    }
  }

  /// ∫ r(x_i, s) ds over [from, to] for every node into `out`.
  void integrals_over(double from, double to, std::span<double> out) const {
    if (factored_) {
      const double base = rate_.base().integral(from, to);
      for (std::size_t i = 0; i < node_x_.size(); ++i) out[i] = mod_[i] * base;
    } else {
      rate_.integral_profile(from, to, node_x_, out, scratch_);
    }
  }

 private:
  const rate_field& rate_;
  std::span<const double> node_x_;
  std::span<double> mod_;
  std::vector<double>& scratch_;
  bool factored_ = false;
  bool uniform_ = false;
};

/// One fused Strang–CN step over an n-node line, in place on `u` with
/// `rhs` as elimination scratch (size ≥ n).  Logically: reaction
/// half-step (react1) — Crank–Nicolson diffusion full step against the
/// rhs matrix and the cached Thomas factorization of the lhs — reaction
/// half-step (react2).  The forward pass computes react1 into rolling
/// registers, forms the CN rhs row from them and eliminates it in place;
/// the backward pass back-substitutes and applies react2 to each node as
/// it is finalized.  Every individual expression — logistic propagator,
/// rhs-row accumulation order, elimination, substitution — is the
/// unfused form's operation sequence, so results are bitwise identical
/// to stepping the substeps separately; fusing only removes the extra
/// sweeps over the grid between them.
template <class React1, class React2>
inline void strang_cn_fused_step(std::size_t n, double* u, double* rhs,
                                 const num::tridiagonal_matrix& rhs_m,
                                 const num::tridiagonal_factorization& factor,
                                 React1&& react1, React2&& react2) {
  const std::vector<double>& dm = rhs_m.diag;
  const std::vector<double>& lm = rhs_m.lower;
  const std::vector<double>& um = rhs_m.upper;
  const std::vector<double>& fl = factor.lower();
  const std::vector<double>& fp = factor.pivots();
  const std::vector<double>& fc = factor.c_star();
  // The recurrence value is carried in a register (`w`) and the reaction
  // values roll through three registers, so each logistic is computed
  // exactly once and the serial elimination chain never waits on a
  // store/reload; the backward pass stores nothing but the finished
  // state.  Instantiated per reaction flavour so the node loops stay
  // branch-free.
  double v_prev;
  double v_cur = react1(u[0], std::size_t{0});
  double v_next = react1(u[1], std::size_t{1});
  double w;
  {
    double acc = dm[0] * v_cur;
    acc += um[0] * v_next;
    w = acc / fp[0];
    rhs[0] = w;
  }
  for (std::size_t i = 1; i + 1 < n; ++i) {
    v_prev = v_cur;
    v_cur = v_next;
    v_next = react1(u[i + 1], i + 1);
    double acc = dm[i] * v_cur;
    acc += lm[i - 1] * v_prev;
    acc += um[i] * v_next;
    w = (acc - fl[i - 1] * w) / fp[i];
    rhs[i] = w;
  }
  {
    v_prev = v_cur;
    v_cur = v_next;
    double acc = dm[n - 1] * v_cur;
    acc += lm[n - 2] * v_prev;
    w = (acc - fl[n - 2] * w) / fp[n - 1];
  }
  // Backward pass: back substitution + second reaction half-step.
  u[n - 1] = react2(w, n - 1);
  for (std::size_t i = n - 1; i-- > 0;) {
    w = rhs[i] - fc[i] * w;
    u[i] = react2(w, i);
  }
}

/// The fused step with the reaction flavour chosen from the rate shape:
/// one shared exp per substep when the rate is uniform in x, the per-node
/// exact logistic otherwise.  `r_int` / `rt` are the integrated rates of
/// the first / second half-step over the n nodes.  The coupled-community
/// solver steps each community with it; the packed line kernel
/// (strang_step) is the same sequence two lanes at a time, which
/// domain_solver_test's K = 1 identity cross-checks.
inline void strang_cn_step(std::size_t n, double* u, double* rhs,
                           const num::tridiagonal_matrix& rhs_m,
                           const num::tridiagonal_factorization& factor,
                           bool uniform, const double* r_int, const double* rt,
                           double kk) {
  if (uniform) {
    const double growth1 = std::exp(r_int[0]);
    const double growth2 = std::exp(rt[0]);
    strang_cn_fused_step(
        n, u, rhs, rhs_m, factor,
        [&](double v, std::size_t) {
          return logistic_exact_with_growth(v, growth1, kk);
        },
        [&](double v, std::size_t) {
          return logistic_exact_with_growth(v, growth2, kk);
        });
  } else {
    strang_cn_fused_step(
        n, u, rhs, rhs_m, factor,
        [&](double v, std::size_t i) {
          return logistic_exact(v, r_int[i], kk);
        },
        [&](double v, std::size_t i) { return logistic_exact(v, rt[i], kk); });
  }
}

/// Non-line domain solvers (dl_domain_solver.cpp): Peaceman–Rachford ADI
/// on the 2-D grid, fused Strang–CN per community plus the explicit
/// mixing substep on coupled communities.  Dispatched to by the scalar
/// loop in dl_solver.cpp; both accept only dl_scheme::strang_cn.
[[nodiscard]] dl_solution solve_dl_grid2d(const dl_parameters& params,
                                          std::span<const double> phi_samples,
                                          const time_loop& loop,
                                          const dl_solver_options& options,
                                          dl_workspace& ws);
[[nodiscard]] dl_solution solve_dl_communities(
    const dl_parameters& params, std::span<const double> phi_samples,
    const time_loop& loop, const dl_solver_options& options,
    dl_workspace& ws);

/// Broadcasts a sampled x-profile across a non-line domain's blocks:
/// replicated per grid2d row, scaled per community (clipped at zero).
[[nodiscard]] std::vector<double> broadcast_profile(
    const dl_parameters& params, std::span<const double> x_profile,
    const dl_solver_options& options);

}  // namespace detail
}  // namespace dlm::core
