#include "core/dl_solver.h"

#include <gtest/gtest.h>

#include <cmath>

#include "models/heat_model.h"
#include "models/logistic.h"

namespace {

using namespace dlm::core;

const std::vector<double> observed{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};

dl_solver_options options_for(dl_scheme scheme) {
  dl_solver_options opts;
  opts.scheme = scheme;
  opts.points_per_unit = 20;
  opts.dt = scheme == dl_scheme::ftcs ? 0.01 : 0.02;
  return opts;
}

TEST(NeumannLaplacian, InteriorAndBoundaryStencils) {
  const std::vector<double> u{1.0, 2.0, 4.0, 2.0, 1.0};
  std::vector<double> lap(5);
  neumann_laplacian(u, 1.0, lap);
  EXPECT_DOUBLE_EQ(lap[0], 2.0 * (2.0 - 1.0));  // mirror ghost
  EXPECT_DOUBLE_EQ(lap[1], 1.0 - 4.0 + 4.0);    // u0 - 2u1 + u2
  EXPECT_DOUBLE_EQ(lap[2], 2.0 - 8.0 + 2.0);
  EXPECT_DOUBLE_EQ(lap[4], 2.0 * (2.0 - 1.0));
  std::vector<double> too_small(3);
  EXPECT_THROW(neumann_laplacian(u, 1.0, too_small), std::invalid_argument);
}

TEST(NeumannLaplacian, ZeroForConstantProfile) {
  const std::vector<double> u(9, 3.5);
  std::vector<double> lap(9);
  neumann_laplacian(u, 0.25, lap);
  for (double v : lap) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(DlSolver, AllSchemesAgree) {
  const dl_parameters params = dl_parameters::paper_hops(6.0);
  const initial_condition phi(observed);
  const dl_solution reference =
      solve_dl({.params = &params, .phi = &phi, .t0 = 1.0, .t_end = 6.0,
                .options = options_for(dl_scheme::mol_rk4)});

  for (dl_scheme scheme : {dl_scheme::ftcs, dl_scheme::strang_cn,
                           dl_scheme::implicit_newton}) {
    const dl_solution sol =
        solve_dl({.params = &params, .phi = &phi, .t0 = 1.0, .t_end = 6.0,
                  .options = options_for(scheme)});
    for (int x = 1; x <= 6; ++x) {
      EXPECT_NEAR(sol.at(x, 6.0), reference.at(x, 6.0),
                  0.02 * reference.at(x, 6.0) + 0.02)
          << to_string(scheme) << " at x=" << x;
    }
  }
}

TEST(DlSolver, ZeroDiffusionMatchesClosedFormLogistic) {
  // With d = 0 every grid point follows the scalar logistic ODE exactly.
  dl_parameters params = dl_parameters::paper_hops(6.0);
  params.d = 0.0;
  params.r = growth_rate::constant(0.7);
  const initial_condition phi(observed);
  const dl_solution sol =
      solve_dl({.params = &params, .phi = &phi, .t0 = 1.0, .t_end = 8.0,
                .options = options_for(dl_scheme::strang_cn)});
  for (int x = 1; x <= 6; ++x) {
    const double expected = dlm::models::logistic_solution(
        phi(x), 0.7, params.k, 1.0, 8.0);
    EXPECT_NEAR(sol.at(x, 8.0), expected, 1e-6) << "x=" << x;
  }
}

TEST(DlSolver, ZeroReactionMatchesHeatSeries) {
  // With r = 0 the DL equation is the Neumann heat equation.
  dl_parameters params = dl_parameters::paper_hops(6.0);
  params.r = growth_rate::constant(0.0);
  params.d = 0.05;
  const initial_condition phi(observed);

  dl_solver_options opts = options_for(dl_scheme::strang_cn);
  opts.points_per_unit = 40;
  opts.dt = 0.005;
  const dl_solution sol = solve_dl({.params = &params,
                                    .phi = &phi,
                                    .t0 = 1.0,
                                    .t_end = 11.0,
                                    .options = opts});

  const std::size_t n = sol.grid().points();
  const std::vector<double> phi_samples = phi.sample(1.0, 6.0, n);
  const std::vector<double> heat = dlm::models::heat_neumann_series(
      phi_samples, 1.0, 6.0, params.d, 10.0, 128);
  const std::vector<double> profile = sol.profile_at(11.0);
  for (std::size_t i = 0; i < n; i += 10)
    EXPECT_NEAR(profile[i], heat[i], 5e-3) << "node " << i;
}

TEST(DlSolver, EquilibriaAreFixedPoints) {
  const dl_parameters params = dl_parameters::paper_hops(6.0);
  // I = K stays K; I = 0 stays 0 (the two equilibria of §II.C).
  const std::vector<double> at_k(101, params.k);
  const dl_solution top =
      solve_dl({.params = &params, .phi_samples = at_k, .t0 = 1.0,
                .t_end = 10.0, .options = options_for(dl_scheme::strang_cn)});
  EXPECT_NEAR(top.at(3.0, 10.0), params.k, 1e-9);
  const std::vector<double> at_zero(101, 0.0);
  const dl_solution bottom = solve_dl(
      {.params = &params, .phi_samples = at_zero, .t0 = 1.0, .t_end = 10.0,
       .options = options_for(dl_scheme::strang_cn)});
  EXPECT_NEAR(bottom.at(3.0, 10.0), 0.0, 1e-12);
}

TEST(DlSolver, SolutionStaysWithinUniqueBand) {
  // 0 ≤ I ≤ K for every scheme (paper's unique property).
  const dl_parameters params = dl_parameters::paper_hops(6.0);
  const initial_condition phi(observed);
  for (dl_scheme scheme : {dl_scheme::ftcs, dl_scheme::strang_cn,
                           dl_scheme::implicit_newton, dl_scheme::mol_rk4}) {
    const dl_solution sol =
        solve_dl({.params = &params, .phi = &phi, .t0 = 1.0, .t_end = 50.0,
                  .options = options_for(scheme)});
    for (const auto& state : sol.states()) {
      for (double v : state) {
        EXPECT_GE(v, -1e-9) << to_string(scheme);
        EXPECT_LE(v, params.k + 1e-6) << to_string(scheme);
      }
    }
  }
}

TEST(DlSolver, StrictlyIncreasingForLowerSolutionPhi) {
  // Paper §II.C: with φ a lower solution, I is strictly increasing in t.
  const dl_parameters params = dl_parameters::paper_hops(6.0);
  const initial_condition phi(observed);
  const dl_solution sol =
      solve_dl({.params = &params, .phi = &phi, .t0 = 1.0, .t_end = 20.0,
                .options = options_for(dl_scheme::strang_cn)});
  const auto& states = sol.states();
  for (std::size_t s = 1; s < states.size(); ++s) {
    for (std::size_t i = 0; i < states[s].size(); ++i)
      EXPECT_GT(states[s][i], states[s - 1][i] - 1e-12);
  }
}

TEST(DlSolver, DiffusionTransportsAcrossDistance) {
  // A point mass spreads to neighbours with d > 0 but not with d = 0.
  std::vector<double> spike(101, 0.0);
  spike[50] = 10.0;
  dl_parameters params = dl_parameters::paper_hops(6.0);
  params.r = growth_rate::constant(0.0);
  params.d = 0.05;
  const dl_solution with_d =
      solve_dl({.params = &params, .phi_samples = spike, .t0 = 1.0,
                .t_end = 5.0, .options = options_for(dl_scheme::strang_cn)});
  EXPECT_GT(with_d.at(3.2, 5.0), 0.01);
  params.d = 0.0;
  const dl_solution without_d =
      solve_dl({.params = &params, .phi_samples = spike, .t0 = 1.0,
                .t_end = 5.0, .options = options_for(dl_scheme::strang_cn)});
  EXPECT_NEAR(without_d.at(3.2, 5.0), 0.0, 1e-9);
}

TEST(DlSolver, NeumannBoundariesConserveHeatMass) {
  // Pure diffusion: the spatial mean is invariant (no flux leaves).
  dl_parameters params = dl_parameters::paper_hops(6.0);
  params.r = growth_rate::constant(0.0);
  const initial_condition phi(observed);
  const dl_solution sol =
      solve_dl({.params = &params, .phi = &phi, .t0 = 1.0, .t_end = 30.0,
                .options = options_for(dl_scheme::strang_cn)});
  const double before = dlm::models::profile_mean(sol.states().front());
  const double after = dlm::models::profile_mean(sol.states().back());
  EXPECT_NEAR(after, before, 1e-6);
}

TEST(DlSolver, FtcsInstabilityGuard) {
  const dl_parameters params = dl_parameters::paper_hops(6.0);
  const initial_condition phi(observed);
  dl_solver_options opts;
  opts.scheme = dl_scheme::ftcs;
  opts.points_per_unit = 100;  // dx = 0.01 → dt_max = 0.005
  opts.dt = 0.05;
  EXPECT_THROW((void)solve_dl({.params = &params, .phi = &phi, .t0 = 1.0,
                               .t_end = 2.0, .options = opts}),
               std::invalid_argument);
}

TEST(DlSolver, RecordsHourlySnapshots) {
  const dl_parameters params = dl_parameters::paper_hops(6.0);
  const initial_condition phi(observed);
  const dl_solution sol =
      solve_dl({.params = &params, .phi = &phi, .t0 = 1.0, .t_end = 6.0,
                .options = options_for(dl_scheme::strang_cn)});
  ASSERT_EQ(sol.times().size(), 6u);
  for (std::size_t s = 0; s < 6; ++s)
    EXPECT_NEAR(sol.times()[s], 1.0 + static_cast<double>(s), 1e-9);
  EXPECT_DOUBLE_EQ(sol.times().front(), 1.0);
  EXPECT_DOUBLE_EQ(sol.times().back(), 6.0);
}

TEST(DlSolver, StepPastTheWindowTakesOneWholeWindowStep) {
  // A dt at or past the window t_end − t0 — even one making
  // (t_end − t0)/dt far below 1e-12 — takes exactly one step of the whole
  // window, with the Crank–Nicolson operator built for that step: the
  // same solution as dt = t_end − t0.
  const dl_parameters params = dl_parameters::paper_hops(6.0);
  const initial_condition phi(observed);
  for (const dl_scheme scheme : {dl_scheme::strang_cn,
                                 dl_scheme::implicit_newton,
                                 dl_scheme::mol_rk4}) {
    dl_solver_options opts = options_for(scheme);
    opts.dt = 5.0;
    const dl_solution whole =
        solve_dl({.params = &params, .phi = &phi, .t0 = 1.0, .t_end = 6.0,
                  .options = opts});
    ASSERT_EQ(whole.times(), (std::vector<double>{1.0, 6.0}));
    for (const double dt : {1e13, 1e300}) {
      opts.dt = dt;
      const dl_solution sol =
          solve_dl({.params = &params, .phi = &phi, .t0 = 1.0, .t_end = 6.0,
                    .options = opts});
      EXPECT_EQ(sol.times(), whole.times()) << to_string(scheme) << " " << dt;
      EXPECT_EQ(sol.states().data(), whole.states().data())
          << to_string(scheme) << " " << dt;
    }
  }
}

TEST(DlSolver, BatchedStepPastTheWindowTakesOneWholeWindowStep) {
  // The batched lanes' per-lane CN coefficients are built for the step
  // actually taken too: a 2-lane strang-cn batch at dt = 1e300 matches
  // each lane solved alone at dt = t_end − t0.
  std::vector<dl_parameters> params(2, dl_parameters::paper_hops(6.0));
  params[1].d *= 1.5;
  const initial_condition phi(observed);
  dl_solver_options opts = options_for(dl_scheme::strang_cn);
  opts.dt = 1e300;
  std::vector<solve_request> requests;
  for (const dl_parameters& p : params)
    requests.push_back(
        {.params = &p, .phi = &phi, .t0 = 1.0, .t_end = 6.0, .options = opts});
  const std::vector<dl_solution> batched = solve_dl(requests);
  ASSERT_EQ(batched.size(), 2u);
  for (std::size_t l = 0; l < 2; ++l) {
    solve_request whole = requests[l];
    whole.options.dt = 5.0;
    const dl_solution alone = solve_dl(whole);
    ASSERT_EQ(batched[l].times(), (std::vector<double>{1.0, 6.0}));
    EXPECT_EQ(batched[l].states().data(), alone.states().data())
        << "lane " << l;
  }
}

TEST(DlSolution, InterpolationAndRangeChecks) {
  const dl_parameters params = dl_parameters::paper_hops(6.0);
  const initial_condition phi(observed);
  const dl_solution sol =
      solve_dl({.params = &params, .phi = &phi, .t0 = 1.0, .t_end = 6.0,
                .options = options_for(dl_scheme::strang_cn)});
  // t = t0 returns φ exactly at the nodes.
  EXPECT_NEAR(sol.at(1.0, 1.0), observed[0], 1e-9);
  EXPECT_NEAR(sol.at(4.0, 1.0), observed[3], 1e-9);
  // Interpolated values lie between snapshot values.
  const double lo = sol.at(2.0, 3.0);
  const double hi = sol.at(2.0, 4.0);
  const double mid = sol.at(2.0, 3.5);
  EXPECT_GT(mid, std::min(lo, hi) - 1e-12);
  EXPECT_LT(mid, std::max(lo, hi) + 1e-12);
  // Out-of-domain access throws.
  EXPECT_THROW((void)sol.at(0.5, 3.0), std::out_of_range);
  EXPECT_THROW((void)sol.at(3.0, 0.5), std::out_of_range);
  EXPECT_THROW((void)sol.at(3.0, 7.0), std::out_of_range);
}

TEST(DlSolution, IntegerDistanceExtraction) {
  const dl_parameters params = dl_parameters::paper_hops(6.0);
  const initial_condition phi(observed);
  const dl_solution sol =
      solve_dl({.params = &params, .phi = &phi, .t0 = 1.0, .t_end = 6.0,
                .options = options_for(dl_scheme::strang_cn)});
  const std::vector<double> profile = sol.at_integer_distances(1.0, 1, 6);
  ASSERT_EQ(profile.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_NEAR(profile[i], observed[i], 1e-9);
  EXPECT_THROW((void)sol.at_integer_distances(1.0, 4, 2),
               std::invalid_argument);
}

TEST(DlSolver, InvalidOptionsThrow) {
  const dl_parameters params = dl_parameters::paper_hops(6.0);
  const initial_condition phi(observed);
  dl_solver_options opts;
  opts.dt = 0.0;
  EXPECT_THROW((void)solve_dl({.params = &params, .phi = &phi, .t0 = 1.0,
                               .t_end = 2.0, .options = opts}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)solve_dl({.params = &params, .phi = &phi, .t0 = 2.0, .t_end = 2.0}),
      std::invalid_argument);
  const std::vector<double> wrong_size{1.0, 2.0};
  EXPECT_THROW((void)solve_dl({.params = &params, .phi_samples = wrong_size,
                               .t0 = 1.0, .t_end = 2.0}),
               std::invalid_argument);
}

TEST(DlScheme, ToStringCoversAll) {
  EXPECT_EQ(to_string(dl_scheme::ftcs), "ftcs");
  EXPECT_EQ(to_string(dl_scheme::strang_cn), "strang-cn");
  EXPECT_EQ(to_string(dl_scheme::implicit_newton), "implicit-newton");
  EXPECT_EQ(to_string(dl_scheme::mol_rk4), "mol-rk4");
}

// Property sweep: every scheme stays within the unique band across a
// parameter lattice of (d, K).
struct band_case {
  dl_scheme scheme;
  double d;
  double k;
};

class UniqueBandSweep : public ::testing::TestWithParam<band_case> {};

TEST_P(UniqueBandSweep, BoundsHold) {
  const band_case c = GetParam();
  dl_parameters params;
  params.d = c.d;
  params.k = c.k;
  params.x_min = 1.0;
  params.x_max = 6.0;
  params.r = growth_rate::paper_hops();
  const initial_condition phi(observed);
  dl_solver_options opts = options_for(c.scheme);
  if (c.scheme == dl_scheme::ftcs && c.d > 0.0) {
    const double dx = 1.0 / static_cast<double>(opts.points_per_unit);
    opts.dt = std::min(opts.dt, 0.4 * dx * dx / c.d);
  }
  const dl_solution sol = solve_dl({.params = &params,
                                    .phi = &phi,
                                    .t0 = 1.0,
                                    .t_end = 25.0,
                                    .options = opts});
  for (const auto& state : sol.states()) {
    for (double v : state) {
      EXPECT_GE(v, -1e-8);
      EXPECT_LE(v, c.k * (1.0 + 1e-6) + 1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParameterLattice, UniqueBandSweep,
    ::testing::Values(
        band_case{dl_scheme::strang_cn, 0.0, 25.0},
        band_case{dl_scheme::strang_cn, 0.01, 25.0},
        band_case{dl_scheme::strang_cn, 0.05, 60.0},
        band_case{dl_scheme::strang_cn, 0.5, 10.0},
        band_case{dl_scheme::implicit_newton, 0.01, 25.0},
        band_case{dl_scheme::implicit_newton, 0.2, 60.0},
        band_case{dl_scheme::ftcs, 0.01, 25.0},
        band_case{dl_scheme::mol_rk4, 0.05, 60.0}));

}  // namespace
