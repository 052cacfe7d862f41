#include "models/logistic.h"

#include <gtest/gtest.h>

#include <cmath>

#include "numerics/integrate.h"

namespace {

using namespace dlm::models;

TEST(LogisticSolution, KnownValues) {
  // N0 = K/2 at t0 → N(t0) = K/2, inflection point.
  EXPECT_DOUBLE_EQ(logistic_solution(12.5, 0.5, 25.0, 0.0, 0.0), 12.5);
  // Long-run limit is K.
  EXPECT_NEAR(logistic_solution(1.0, 1.0, 25.0, 0.0, 50.0), 25.0, 1e-6);
}

TEST(LogisticSolution, MatchesOdeIntegration) {
  const double r = 0.8, k = 10.0, n0 = 0.5;
  const double numeric = dlm::num::integrate_scalar(
      [&](double, double n) { return r * n * (1.0 - n / k); }, 0.0, n0, 5.0,
      2000);
  EXPECT_NEAR(logistic_solution(n0, r, k, 0.0, 5.0), numeric, 1e-7);
}

TEST(LogisticSolution, InvalidArgumentsThrow) {
  EXPECT_THROW((void)logistic_solution(0.0, 1.0, 10.0, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)logistic_solution(1.0, 1.0, 0.0, 0.0, 1.0),
               std::invalid_argument);
}

TEST(LogisticStep, MatchesClosedFormForConstantRate) {
  const double k = 25.0, n0 = 2.0, r = 0.7, h = 1.3;
  EXPECT_NEAR(logistic_step(n0, r * h, k),
              logistic_solution(n0, r, k, 0.0, h), 1e-12);
}

TEST(LogisticStep, SemigroupProperty) {
  // Stepping by R1 then R2 equals stepping by R1 + R2.
  const double k = 10.0, n0 = 1.5;
  const double two_steps = logistic_step(logistic_step(n0, 0.4, k), 0.9, k);
  const double one_step = logistic_step(n0, 1.3, k);
  EXPECT_NEAR(two_steps, one_step, 1e-12);
}

TEST(LogisticStep, PreservesBounds) {
  const double k = 25.0;
  EXPECT_DOUBLE_EQ(logistic_step(0.0, 5.0, k), 0.0);
  EXPECT_NEAR(logistic_step(k, 5.0, k), k, 1e-12);
  for (double n : {0.1, 5.0, 20.0, 24.9}) {
    const double next = logistic_step(n, 2.0, k);
    EXPECT_GT(next, 0.0);
    EXPECT_LT(next, k + 1e-12);
    EXPECT_GT(next, n);  // growth below capacity
  }
}

TEST(LogisticStep, ZeroRateIsIdentity) {
  EXPECT_DOUBLE_EQ(logistic_step(3.7, 0.0, 25.0), 3.7);
}

}  // namespace
