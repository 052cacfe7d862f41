#include <gtest/gtest.h>

#include <cmath>
#include <limits>
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

/// Runs one search to the end, the way each calibration lane does.
template <typename F>
num::nelder_mead_result run(num::nelder_mead search, F&& f) {
  while (!search.done()) search.tell(f(search.ask()));
  return search.result();
}

/// Index of the lattice argmin, lowest index on ties — the choice
/// calibration makes over its lattice round.
template <typename F>
std::size_t lattice_argmin(const std::vector<std::vector<double>>& points,
                           F&& f) {
  std::size_t best = 0;
  double best_value = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double v = f(points[i]);
    if (v < best_value) {
      best_value = v;
      best = i;
    }
  }
  return best;
}

TEST(NelderMead, MinimizesQuadratic) {
  const std::vector<double> start{0.0, 0.0, 0.0};
  const auto res = run(num::nelder_mead(start, {}), quadratic);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.f_value, 1e-8);
  EXPECT_NEAR(res.x[0], 1.0, 1e-3);
  EXPECT_NEAR(res.x[1], 2.0, 1e-3);
  EXPECT_NEAR(res.x[2], 3.0, 1e-3);
}

TEST(NelderMead, MinimizesRosenbrock) {
  const std::vector<double> start{-1.2, 1.0};
  num::nelder_mead_options opt;
  opt.max_iterations = 5000;
  const auto res = run(num::nelder_mead(start, opt), rosenbrock);
  EXPECT_NEAR(res.x[0], 1.0, 1e-3);
  EXPECT_NEAR(res.x[1], 1.0, 1e-3);
}

TEST(NelderMead, ReportsEvaluationCount) {
  const std::vector<double> start{0.5};
  std::size_t calls = 0;
  const auto res = run(num::nelder_mead(start, {}),
                       [&](std::span<const double> x) {
                         ++calls;
                         return x[0] * x[0];
                       });
  EXPECT_GT(res.evaluations, 0u);
  EXPECT_EQ(res.evaluations, calls);
}

TEST(NelderMead, EmptyStartThrows) {
  EXPECT_THROW(num::nelder_mead(std::vector<double>{}, {}),
               std::invalid_argument);
}

TEST(NelderMead, TellAfterDoneThrows) {
  const std::vector<double> start{0.5};
  num::nelder_mead_options opt;
  opt.max_iterations = 0;
  num::nelder_mead search(start, opt);
  while (!search.done()) search.tell(quadratic(search.ask()));
  EXPECT_THROW(search.tell(0.0), std::logic_error);
}

TEST(NelderMeadBounded, RespectsBoxConstraints) {
  // Unconstrained minimum at (1, 2); box forces x ≤ 0.5.
  const std::vector<double> start{0.0, 0.0};
  const std::vector<double> lo{-1.0, -1.0};
  const std::vector<double> hi{0.5, 0.5};
  num::nelder_mead search(start, {}, lo, hi);
  while (!search.done()) {
    const std::span<const double> x = search.ask();
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_GE(x[i], lo[i]);
      EXPECT_LE(x[i], hi[i]);
    }
    search.tell(quadratic(x));
  }
  const auto res = search.result();
  EXPECT_NEAR(res.x[0], 0.5, 1e-3);
  EXPECT_NEAR(res.x[1], 0.5, 1e-3);
}

TEST(NelderMeadBounded, BadBoundsThrow) {
  const std::vector<double> start{0.0};
  EXPECT_THROW(num::nelder_mead(start, {}, std::vector<double>{1.0},
                                std::vector<double>{-1.0}),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(num::nelder_mead(start, {}, std::vector<double>{nan},
                                std::vector<double>{1.0}),
               std::invalid_argument);
  // Sizes must match the start; one empty side is not "unconstrained".
  EXPECT_THROW(num::nelder_mead(start, {}, std::vector<double>{0.0, 0.0},
                                std::vector<double>{1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(num::nelder_mead(start, {}, std::vector<double>{},
                                std::vector<double>{1.0}),
               std::invalid_argument);
  // Both empty: unconstrained.
  EXPECT_NO_THROW(num::nelder_mead(start, {}, std::vector<double>{},
                                   std::vector<double>{}));
}

TEST(GridSearch, FindsBestLatticePoint) {
  const std::vector<num::grid_axis> axes{{0.0, 2.0, 21}, {0.0, 4.0, 41}};
  const auto points = num::grid_lattice_points(axes);
  ASSERT_EQ(points.size(), 21u * 41u);
  const auto& best =
      points[lattice_argmin(points, [](std::span<const double> x) {
        return std::pow(x[0] - 1.0, 2) + std::pow(x[1] - 3.0, 2);
      })];
  EXPECT_NEAR(best[0], 1.0, 1e-12);
  EXPECT_NEAR(best[1], 3.0, 1e-12);
}

TEST(GridSearch, SinglePointAxisPinsValue) {
  const std::vector<num::grid_axis> axes{{0.7, 0.0, 1}, {0.0, 1.0, 11}};
  const auto points = num::grid_lattice_points(axes);
  ASSERT_EQ(points.size(), 11u);
  for (const auto& p : points) EXPECT_DOUBLE_EQ(p[0], 0.7);
  const auto& best =
      points[lattice_argmin(points, [](std::span<const double> x) {
        return std::abs(x[0] - 0.7) + x[1];
      })];
  EXPECT_DOUBLE_EQ(best[1], 0.0);
}

TEST(GridSearch, LatticePointsScanOrderAndTies) {
  // Axis 0 varies fastest, and an all-tied scan keeps the first point:
  // calibration fans the lattice out in any order yet picks the point a
  // serial scan would.
  const std::vector<num::grid_axis> axes{{0.0, 1.0, 2}, {10.0, 30.0, 3}};
  const auto points = num::grid_lattice_points(axes);
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(points[0], (std::vector<double>{0.0, 10.0}));
  EXPECT_EQ(points[1], (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(points[2], (std::vector<double>{0.0, 20.0}));
  EXPECT_EQ(points[5], (std::vector<double>{1.0, 30.0}));
  EXPECT_EQ(lattice_argmin(points, [](std::span<const double>) { return 0.0; }),
            0u);
}

TEST(GridSearch, InvalidAxesThrow) {
  EXPECT_THROW((void)num::grid_lattice_points(std::vector<num::grid_axis>{}),
               std::invalid_argument);
  const std::vector<num::grid_axis> zero_count{{0.0, 1.0, 0}};
  EXPECT_THROW((void)num::grid_lattice_points(zero_count),
               std::invalid_argument);
  const std::vector<num::grid_axis> flat{{1.0, 1.0, 3}};
  EXPECT_THROW((void)num::grid_lattice_points(flat), std::invalid_argument);
}

}  // namespace
