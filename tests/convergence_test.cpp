// Observed convergence order of the DL solver (ctest label `numerics`).
//
// Richardson ratios: solve with a step h, h/2, h/4 and h/8 along one
// refinement axis and take the successive differences
//     e_k = max |u_{h/2^k} − u_{h/2^(k+1)}|   over shared points.
// For a scheme of order p, e_k / e_{k+1} → 2^p: about 4 for a second-
// order scheme, about 2 for a first-order one.  Space is refined at a
// fine fixed dt and compared at the integer distances (nodes of every
// grid); time is refined on a fixed grid and compared node by node, so
// the spatial error cancels out of the differences.
//
// Tolerances, stated against the asymptotic 2^p:
//   * strang_cn, ftcs and mol_rk4 in space ≥ 3.5 (the second-order
//     central Laplacian all three share; each reads 4.02/4.01 at
//     dt = 0.0025, because the temporal error at a fixed dt cancels out
//     of the successive differences);
//   * strang_cn in time ≥ 3.5 (second-order Strang splitting with an
//     exact reaction substep and Crank–Nicolson diffusion);
//   * implicit_newton and ftcs in time ≥ 1.7 (first-order backward and
//     forward Euler; ftcs reads 1.97/1.98 from dt = 0.08);
//   * mol_rk4 in time ≥ 14 (classical fourth-order Runge–Kutta on the
//     semi-discrete system: reads 15.86/15.97 from dt = 0.08).
//
// The d = 0 limit is checked against the closed form: without diffusion
// every node follows the scalar logistic ODE from its own initial value,
// N(t) = models::logistic_solution(φ(x), r, K, t0, t).  strang_cn is
// exact there up to rounding (its reaction half-steps are the exact
// logistic propagator and Crank–Nicolson with λ = 0 is the identity),
// so it must match to 1e-10 relative; implicit_newton's error against it
// must fall by ≥ 1.8× per dt halving (first order, measured directly
// rather than through successive differences).
//
// At r = 0 the equation is the heat equation with no-flux ends, and
// φ = A + B·cos(π(x − x_min)/L) (L = x_max − x_min) is a Neumann mode:
// u = A + B·e^{−d(π/L)²(t − t0)}·cos(π(x − x_min)/L) exactly.  The cosine
// is an eigenvector of the mirror-ghost Laplacian too, with an eigenvalue
// off by O(dx²), and Crank–Nicolson adds O(dt²), so strang_cn's max error
// against the mode must fall by ≥ 3.5× per joint dx/dt halving.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/dl_solver.h"
#include "models/logistic.h"

namespace {

using namespace dlm::core;

const std::vector<double> observed{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};
constexpr double kT0 = 1.0;
constexpr double kTEnd = 6.0;

/// The paper's s1 hop-distance setup; callers read its final snapshot.
dl_solution solve_final(const dl_solver_options& options) {
  const dl_parameters params = dl_parameters::paper_hops(6.0);
  const initial_condition phi(observed);
  return solve_dl({.params = &params,
                   .phi = &phi,
                   .t0 = kT0,
                   .t_end = kTEnd,
                   .options = options});
}

/// e_k / e_{k+1} for the successive differences of `levels` (each level
/// a refinement of the one before, sampled at the same points).
std::vector<double> richardson_ratios(
    const std::vector<std::vector<double>>& levels) {
  std::vector<double> diffs;
  for (std::size_t k = 0; k + 1 < levels.size(); ++k) {
    double diff = 0.0;
    for (std::size_t i = 0; i < levels[k].size(); ++i)
      diff = std::max(diff, std::abs(levels[k][i] - levels[k + 1][i]));
    diffs.push_back(diff);
  }
  std::vector<double> ratios;
  for (std::size_t k = 0; k + 1 < diffs.size(); ++k)
    ratios.push_back(diffs[k] / diffs[k + 1]);
  return ratios;
}

/// Ratios over three halvings of dx (points per unit 10 → 80).
std::vector<double> space_ratios(dl_scheme scheme, double dt) {
  std::vector<std::vector<double>> levels;
  for (const std::size_t ppu : {10u, 20u, 40u, 80u}) {
    dl_solver_options options;
    options.scheme = scheme;
    options.points_per_unit = ppu;
    options.dt = dt;
    levels.push_back(
        solve_final(options).at_integer_distances(kTEnd, 1, 6));
  }
  return richardson_ratios(levels);
}

/// Ratios over three halvings of dt (from `dt0`) on the default grid.
std::vector<double> time_ratios(dl_scheme scheme, double dt0) {
  std::vector<std::vector<double>> levels;
  for (double dt = dt0; levels.size() < 4; dt /= 2.0) {
    dl_solver_options options;
    options.scheme = scheme;
    options.dt = dt;
    const dl_solution solution = solve_final(options);
    const std::span<const double> last = solution.states().back();
    levels.emplace_back(last.begin(), last.end());
  }
  return richardson_ratios(levels);
}

class SpaceOrder : public ::testing::TestWithParam<dl_scheme> {};

TEST_P(SpaceOrder, IsSecondOrderInSpace) {
  const std::vector<double> ratios = space_ratios(GetParam(), 0.0025);
  ASSERT_EQ(ratios.size(), 2u);
  for (const double ratio : ratios) EXPECT_GE(ratio, 3.5);
}

INSTANTIATE_TEST_SUITE_P(
    ObservedOrder, SpaceOrder,
    ::testing::Values(dl_scheme::strang_cn, dl_scheme::ftcs,
                      dl_scheme::mol_rk4),
    [](const ::testing::TestParamInfo<dl_scheme>& info) {
      std::string name = to_string(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(ObservedOrder, StrangCnIsSecondOrderInTime) {
  const std::vector<double> ratios = time_ratios(dl_scheme::strang_cn, 0.08);
  ASSERT_EQ(ratios.size(), 2u);
  for (const double ratio : ratios) EXPECT_GE(ratio, 3.5);
}

TEST(ObservedOrder, ImplicitNewtonIsFirstOrderInTime) {
  const std::vector<double> ratios =
      time_ratios(dl_scheme::implicit_newton, 0.08);
  ASSERT_EQ(ratios.size(), 2u);
  for (const double ratio : ratios) EXPECT_GE(ratio, 1.7);
}

TEST(ObservedOrder, FtcsIsFirstOrderInTime) {
  // dt 0.08 → 0.01 stays inside FTCS's stability bound dx²/(2d) = 0.125.
  const std::vector<double> ratios = time_ratios(dl_scheme::ftcs, 0.08);
  ASSERT_EQ(ratios.size(), 2u);
  for (const double ratio : ratios) EXPECT_GE(ratio, 1.7);
}

TEST(ObservedOrder, MolRk4IsFourthOrderInTime) {
  const std::vector<double> ratios = time_ratios(dl_scheme::mol_rk4, 0.08);
  ASSERT_EQ(ratios.size(), 2u);
  for (const double ratio : ratios) EXPECT_GE(ratio, 14.0);
}

constexpr double kLimitRate = 0.6;

/// The d = 0 limit: constant rate, φ_i = 0.2 (i + 1) on the default
/// grid (0.2 … 20.2, below K = 25), recorded every hour from t0 to tEnd.
struct logistic_limit {
  dl_parameters params = dl_parameters::paper_hops(6.0);
  std::vector<double> phi;

  logistic_limit() {
    params.d = 0.0;
    params.r = growth_rate::constant(kLimitRate);
    const dl_solver_options defaults;
    const std::size_t nodes =
        static_cast<std::size_t>(params.x_max - params.x_min) *
            defaults.points_per_unit + 1;
    for (std::size_t i = 0; i < nodes; ++i)
      phi.push_back(0.2 * static_cast<double>(i + 1));
  }

  [[nodiscard]] dl_solution solve(dl_scheme scheme, double dt) const {
    dl_solver_options options;
    options.scheme = scheme;
    options.dt = dt;
    return solve_dl({.params = &params,
                     .phi_samples = phi,
                     .t0 = kT0,
                     .t_end = kTEnd,
                     .options = options});
  }

  [[nodiscard]] double exact(std::size_t node, double t) const {
    return dlm::models::logistic_solution(phi[node], kLimitRate, params.k,
                                          kT0, t);
  }
};

TEST(LogisticLimit, StrangCnIsExactWithoutDiffusion) {
  const logistic_limit limit;
  const dl_solution solution = limit.solve(dl_scheme::strang_cn, 0.02);
  ASSERT_EQ(solution.times().size(), 6u);
  ASSERT_EQ(solution.states().cols(), limit.phi.size());
  for (std::size_t s = 0; s < solution.times().size(); ++s) {
    const double t = solution.times()[s];
    for (std::size_t i = 0; i < limit.phi.size(); ++i) {
      const double exact = limit.exact(i, t);
      EXPECT_NEAR(solution.states()[s][i], exact, 1e-10 * exact)
          << "t=" << t << " node " << i;
    }
  }
}

TEST(LogisticLimit, ImplicitNewtonErrorIsFirstOrder) {
  const logistic_limit limit;
  std::vector<double> errors;
  for (const double dt : {0.08, 0.04, 0.02}) {
    const dl_solution solution = limit.solve(dl_scheme::implicit_newton, dt);
    const std::span<const double> last = solution.states().back();
    double error = 0.0;
    for (std::size_t i = 0; i < last.size(); ++i)
      error = std::max(error, std::abs(last[i] - limit.exact(i, kTEnd)));
    errors.push_back(error);
  }
  for (std::size_t k = 0; k + 1 < errors.size(); ++k) {
    EXPECT_GT(errors[k + 1], 0.0);
    EXPECT_GE(errors[k] / errors[k + 1], 1.8)
        << "error " << errors[k] << " -> " << errors[k + 1];
  }
}

TEST(CosineMode, StrangCnErrorIsSecondOrder) {
  constexpr double kA = 2.0;
  constexpr double kB = 1.5;
  dl_parameters params = dl_parameters::paper_hops(6.0);
  params.d = 0.5;
  params.r = growth_rate::constant(0.0);
  const double length = params.x_max - params.x_min;
  const double pi = std::acos(-1.0);
  const double decay = params.d * (pi / length) * (pi / length);

  std::vector<double> errors;
  double dt = 0.08;
  for (const std::size_t ppu : {10u, 20u, 40u, 80u}) {
    const std::size_t nodes =
        static_cast<std::size_t>(length) * ppu + 1;
    std::vector<double> phi(nodes);
    std::vector<double> mode(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      const double x = static_cast<double>(i) / static_cast<double>(ppu);
      mode[i] = std::cos(pi * x / length);
      phi[i] = kA + kB * mode[i];
    }
    dl_solver_options options;
    options.points_per_unit = ppu;
    options.dt = dt;
    const dl_solution solution = solve_dl({.params = &params,
                                           .phi_samples = phi,
                                           .t0 = kT0,
                                           .t_end = kTEnd,
                                           .options = options});
    double error = 0.0;
    for (std::size_t s = 0; s < solution.times().size(); ++s) {
      const double amplitude =
          kB * std::exp(-decay * (solution.times()[s] - kT0));
      for (std::size_t i = 0; i < nodes; ++i)
        error = std::max(error, std::abs(solution.states()[s][i] -
                                         (kA + amplitude * mode[i])));
    }
    errors.push_back(error);
    dt /= 2.0;
  }
  EXPECT_LT(errors.front(), 1e-3);
  for (std::size_t k = 0; k + 1 < errors.size(); ++k)
    EXPECT_GE(errors[k] / errors[k + 1], 3.5)
        << "error " << errors[k] << " -> " << errors[k + 1];
}

}  // namespace
