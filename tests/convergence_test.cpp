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
//   * implicit_newton in time ≥ 1.7 (first-order backward Euler).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/dl_solver.h"

namespace {

using namespace dlm::core;

const std::vector<double> observed{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};
constexpr double kT0 = 1.0;
constexpr double kTEnd = 6.0;

/// The final-time profile of the paper's s1 hop-distance setup.
dl_solution solve_final(const dl_solver_options& options) {
  const dl_parameters params = dl_parameters::paper_hops(6.0);
  const initial_condition phi(observed);
  return solve_dl({.params = &params,
                   .phi = &phi,
                   .t0 = kT0,
                   .t_end = kTEnd,
                   .options = options,
                   .output = dl_output_mode::final_state});
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

}  // namespace
