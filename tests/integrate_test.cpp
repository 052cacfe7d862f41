#include "numerics/integrate.h"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using dlm::num::integrate_scalar;
using dlm::num::ode_rhs;

const ode_rhs exponential_decay = [](double, std::span<const double> y,
                                     std::span<double> dydt) {
  dydt[0] = -y[0];
};

// Order-of-convergence property: halving h divides the error by ~2^4.
TEST(Rk4, ObservedOrderIsFour) {
  const auto error_with = [](std::size_t steps) {
    const double y1 = integrate_scalar([](double, double y) { return -y; },
                                       0.0, 1.0, 1.0, steps);
    return std::abs(y1 - std::exp(-1.0));
  };
  const double e1 = error_with(40);
  const double e2 = error_with(80);
  EXPECT_NEAR(std::log2(e1 / e2), 4.0, 0.35) << "e1=" << e1 << " e2=" << e2;
}

TEST(IntegrateScalar, LogisticOde) {
  // y' = y (1 - y), y(0) = 0.5 → y(t) = 1 / (1 + e^{-t}).
  const double y1 = integrate_scalar(
      [](double, double y) { return y * (1.0 - y); }, 0.0, 0.5, 2.0, 400);
  EXPECT_NEAR(y1, 1.0 / (1.0 + std::exp(-2.0)), 1e-8);
}

TEST(StepFunctions, SizeMismatchThrows) {
  std::vector<double> y{1.0};
  std::vector<double> out(2);
  dlm::num::rk4_scratch scratch;
  EXPECT_THROW(
      dlm::num::rk4_step(exponential_decay, 0.0, y, 0.1, out, scratch),
      std::invalid_argument);
}

}  // namespace
