#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "numerics/optimize/grid_search.h"
#include "numerics/optimize/nelder_mead.h"

namespace {

namespace num = dlm::num;

double quadratic(std::span<const double> x) {
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - static_cast<double>(i + 1);
    acc += d * d;
  }
  return acc;
}

double rosenbrock(std::span<const double> x) {
  return 100.0 * std::pow(x[1] - x[0] * x[0], 2) + std::pow(1.0 - x[0], 2);
}

TEST(NelderMead, MinimizesQuadratic) {
  const std::vector<double> start{0.0, 0.0, 0.0};
  const auto res = num::minimize_nelder_mead(quadratic, start);
  EXPECT_LT(res.f_value, 1e-8);
  EXPECT_NEAR(res.x[0], 1.0, 1e-3);
  EXPECT_NEAR(res.x[1], 2.0, 1e-3);
  EXPECT_NEAR(res.x[2], 3.0, 1e-3);
}

TEST(NelderMead, MinimizesRosenbrock) {
  const std::vector<double> start{-1.2, 1.0};
  num::nelder_mead_options opt;
  opt.max_iterations = 5000;
  const auto res = num::minimize_nelder_mead(rosenbrock, start, opt);
  EXPECT_NEAR(res.x[0], 1.0, 1e-3);
  EXPECT_NEAR(res.x[1], 1.0, 1e-3);
}

TEST(NelderMead, ReportsEvaluationCount) {
  const std::vector<double> start{0.5};
  const auto res = num::minimize_nelder_mead(
      [](std::span<const double> x) { return x[0] * x[0]; }, start);
  EXPECT_GT(res.evaluations, 0u);
}

TEST(NelderMead, EmptyStartThrows) {
  EXPECT_THROW(
      (void)num::minimize_nelder_mead(quadratic, std::vector<double>{}),
      std::invalid_argument);
}

TEST(NelderMeadBounded, RespectsBoxConstraints) {
  // Unconstrained minimum at (1, 2); box forces x ≤ 0.5.
  const std::vector<double> start{0.0, 0.0};
  const std::vector<double> lo{-1.0, -1.0};
  const std::vector<double> hi{0.5, 0.5};
  const auto res =
      num::minimize_nelder_mead_bounded(quadratic, start, lo, hi);
  EXPECT_LE(res.x[0], 0.5 + 1e-9);
  EXPECT_LE(res.x[1], 0.5 + 1e-9);
  EXPECT_NEAR(res.x[0], 0.5, 1e-3);
  EXPECT_NEAR(res.x[1], 0.5, 1e-3);
}

TEST(NelderMeadBounded, BadBoundsThrow) {
  const std::vector<double> start{0.0};
  EXPECT_THROW((void)num::minimize_nelder_mead_bounded(
                   quadratic, start, std::vector<double>{1.0},
                   std::vector<double>{-1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)num::minimize_nelder_mead_bounded(
                   quadratic, start, std::vector<double>{}, std::vector<double>{}),
               std::invalid_argument);
}

TEST(GridSearch, FindsBestLatticePoint) {
  const std::vector<num::grid_axis> axes{{0.0, 2.0, 21}, {0.0, 4.0, 41}};
  const auto res = num::minimize_grid(
      [](std::span<const double> x) {
        return std::pow(x[0] - 1.0, 2) + std::pow(x[1] - 3.0, 2);
      },
      axes);
  EXPECT_NEAR(res.x[0], 1.0, 1e-12);
  EXPECT_NEAR(res.x[1], 3.0, 1e-12);
  EXPECT_EQ(res.evaluations, 21u * 41u);
}

TEST(GridSearch, SinglePointAxisPinsValue) {
  const std::vector<num::grid_axis> axes{{0.7, 0.0, 1}, {0.0, 1.0, 11}};
  const auto res = num::minimize_grid(
      [](std::span<const double> x) { return std::abs(x[0] - 0.7) + x[1]; },
      axes);
  EXPECT_DOUBLE_EQ(res.x[0], 0.7);
  EXPECT_DOUBLE_EQ(res.x[1], 0.0);
}

TEST(GridSearch, LatticePointsMatchScanOrder) {
  // grid_lattice_points is the enumeration minimize_grid scans — axis 0
  // fastest — so callers that parallelize over it (calibration) break
  // ties on the same point the serial scan would pick.
  const std::vector<num::grid_axis> axes{{0.0, 1.0, 2}, {10.0, 30.0, 3}};
  const auto points = num::grid_lattice_points(axes);
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(points[0], (std::vector<double>{0.0, 10.0}));
  EXPECT_EQ(points[1], (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(points[2], (std::vector<double>{0.0, 20.0}));
  EXPECT_EQ(points[5], (std::vector<double>{1.0, 30.0}));

  std::size_t visit = 0;
  const auto res = num::minimize_grid(
      [&](std::span<const double> x) {
        EXPECT_EQ(std::vector<double>(x.begin(), x.end()), points[visit]);
        ++visit;
        return 0.0;  // all tied: the argmin must be the first point
      },
      axes);
  EXPECT_EQ(visit, points.size());
  EXPECT_EQ(res.x, points.front());
}

TEST(GridSearch, InvalidAxesThrow) {
  EXPECT_THROW((void)num::minimize_grid(
                   [](std::span<const double>) { return 0.0; },
                   std::vector<num::grid_axis>{}),
               std::invalid_argument);
  const std::vector<num::grid_axis> zero_count{{0.0, 1.0, 0}};
  EXPECT_THROW((void)num::minimize_grid(
                   [](std::span<const double>) { return 0.0; }, zero_count),
               std::invalid_argument);
}

}  // namespace
