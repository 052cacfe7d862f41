#include "numerics/quadrature.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace {

using dlm::num::simpson;

TEST(Simpson, ExactForCubics) {
  const auto f = [](double x) { return x * x * x - x + 2.0; };
  // ∫_0^2 = [x^4/4 - x^2/2 + 2x] = 4 - 2 + 4 = 6.
  EXPECT_NEAR(simpson(f, 0.0, 2.0, 2), 6.0, 1e-12);
}

TEST(Simpson, SinIntegral) {
  // Composite-Simpson error bound: (b−a)·h^4·max|f''''|/180 ≈ 1e-7 here.
  EXPECT_NEAR(simpson([](double x) { return std::sin(x); }, 0.0, 3.14159265358979,
                      64),
              2.0, 1e-6);
}

TEST(Simpson, OddSubintervalCountIsRoundedUp) {
  const auto f = [](double x) { return x; };
  EXPECT_NEAR(simpson(f, 0.0, 1.0, 3), 0.5, 1e-12);
}

TEST(Simpson, InvalidRangeThrows) {
  EXPECT_THROW((void)simpson([](double) { return 1.0; }, 1.0, 1.0, 4),
               std::invalid_argument);
}

}  // namespace
