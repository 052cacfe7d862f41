#include "digg/target_curves.h"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace dlm::digg;

TEST(GrowthCurve, PaperEq7Values) {
  const growth_curve r{1.4, 1.5, 0.25};  // paper Eq. 7
  EXPECT_NEAR(r(1.0), 1.65, 1e-12);
  EXPECT_NEAR(r(2.0), 1.4 * std::exp(-1.5) + 0.25, 1e-12);
  // Decreasing towards the floor.
  EXPECT_GT(r(1.0), r(2.0));
  EXPECT_GT(r(2.0), r(5.0));
  EXPECT_NEAR(r(100.0), 0.25, 1e-10);
}

TEST(TargetCurve, StartsAtInitialDensity) {
  const group_target g{1.9, 18.5, 1.0};
  const surface_params s{{1.4, 1.5, 0.25}, 25.0, 4.0};
  const std::vector<double> curve = target_curve(g, s, 50);
  ASSERT_EQ(curve.size(), 50u);
  EXPECT_DOUBLE_EQ(curve[0], 1.9);
}

TEST(TargetCurve, MonotoneNonDecreasing) {
  const group_target g{0.3, 3.0, 1.0};
  const surface_params s{{1.4, 1.5, 0.25}, 25.0, 4.0};
  const std::vector<double> curve = target_curve(g, s, 50);
  for (std::size_t t = 1; t < curve.size(); ++t)
    EXPECT_GE(curve[t], curve[t - 1]) << "hour " << t + 1;
}

TEST(TargetCurve, PlateausNearSaturation) {
  const group_target g{1.9, 18.5, 1.0};
  const surface_params s{{1.4, 1.5, 0.25}, 25.0, 4.0};
  const std::vector<double> curve = target_curve(g, s, 50);
  EXPECT_NEAR(curve.back(), 18.5, 1.0);
}

TEST(TargetCurve, RateMultiplierSlowsGrowth) {
  const surface_params s{{1.4, 1.5, 0.25}, 25.0, 4.0};
  const std::vector<double> fast =
      target_curve({1.0, 10.0, 1.0}, s, 10);
  const std::vector<double> slow =
      target_curve({1.0, 10.0, 0.5}, s, 10);
  for (std::size_t t = 1; t < 10; ++t) EXPECT_LT(slow[t], fast[t]);
}

TEST(TargetCurve, TailGroupsNeverDecline) {
  // Regression: a tiny saturation far below K used to make the relaxing
  // capacity cross the density and produce declining "cumulative" curves.
  const group_target g{0.1, 0.4, 1.0};
  const surface_params s{{1.4, 1.5, 0.25}, 25.0, 4.0};
  const std::vector<double> curve = target_curve(g, s, 50);
  for (std::size_t t = 1; t < curve.size(); ++t)
    EXPECT_GE(curve[t], curve[t - 1]);
}

TEST(TargetCurve, InvalidArgumentsThrow) {
  const surface_params s{{1.4, 1.5, 0.25}, 25.0, 4.0};
  EXPECT_THROW((void)target_curve({1.0, 10.0, 1.0}, s, 0),
               std::invalid_argument);
  EXPECT_THROW((void)target_curve({-1.0, 10.0, 1.0}, s, 10),
               std::invalid_argument);
  EXPECT_THROW((void)target_curve({1.0, 0.0, 1.0}, s, 10),
               std::invalid_argument);
}

TEST(VoteTimeDistribution, InvertsMonotonically) {
  const std::vector<double> curve{1.0, 3.0, 6.0, 10.0};
  const vote_time_distribution dist(curve);
  EXPECT_DOUBLE_EQ(dist.final_density(), 10.0);
  double prev = -1.0;
  for (double u = 0.0; u < 1.0; u += 0.05) {
    const double tau = dist.invert(u);
    EXPECT_GE(tau, prev);
    EXPECT_GE(tau, 0.0);
    EXPECT_LE(tau, 4.0);
    prev = tau;
  }
}

TEST(VoteTimeDistribution, QuantilesLandInRightHours) {
  // Density 1 at hour 1, 3 at hour 2: 1/3 of votes in [0,1), rest [1,2).
  const std::vector<double> curve{1.0, 3.0};
  const vote_time_distribution dist(curve);
  EXPECT_LT(dist.invert(0.2), 1.0);
  EXPECT_GT(dist.invert(0.5), 1.0);
  EXPECT_NEAR(dist.invert(1.0 / 3.0), 1.0, 1e-9);
}

TEST(VoteTimeDistribution, EdgeQuantiles) {
  const std::vector<double> curve{2.0, 4.0};
  const vote_time_distribution dist(curve);
  EXPECT_DOUBLE_EQ(dist.invert(0.0), 0.0);
  EXPECT_LE(dist.invert(0.999999), 2.0);
  // u >= 1 is clamped below 1.
  EXPECT_LE(dist.invert(1.5), 2.0);
}

TEST(VoteTimeDistribution, RejectsBadCurves) {
  EXPECT_THROW(vote_time_distribution({}), std::invalid_argument);
  EXPECT_THROW(vote_time_distribution({3.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(vote_time_distribution({0.0, 0.0}), std::invalid_argument);
}

}  // namespace
