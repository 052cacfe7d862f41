#include "core/growth_rate.h"

#include <gtest/gtest.h>

#include <cmath>

#include "numerics/quadrature.h"

namespace {

using dlm::core::growth_rate;

TEST(GrowthRate, ConstantFamily) {
  const growth_rate r = growth_rate::constant(0.5);
  EXPECT_DOUBLE_EQ(r(1.0), 0.5);
  EXPECT_DOUBLE_EQ(r(99.0), 0.5);
  EXPECT_DOUBLE_EQ(r.integral(2.0, 6.0), 2.0);
  EXPECT_THROW((void)growth_rate::constant(-1.0), std::invalid_argument);
}

TEST(GrowthRate, PaperHopsMatchesEq7) {
  const growth_rate r = growth_rate::paper_hops();
  // r(t) = 1.4 e^{-1.5(t-1)} + 0.25; Fig. 6: r(1) = 1.65.
  EXPECT_NEAR(r(1.0), 1.65, 1e-12);
  EXPECT_NEAR(r(2.0), 1.4 * std::exp(-1.5) + 0.25, 1e-12);
  EXPECT_NEAR(r(5.0), 1.4 * std::exp(-6.0) + 0.25, 1e-12);
}

TEST(GrowthRate, PaperInterestMatchesSection3C) {
  const growth_rate r = growth_rate::paper_interest();
  EXPECT_NEAR(r(1.0), 1.7, 1e-12);  // 1.6 + 0.1
  EXPECT_NEAR(r(3.0), 1.6 * std::exp(-2.0) + 0.1, 1e-12);
}

TEST(GrowthRate, ExponentialDecayIntegralIsExact) {
  const growth_rate r = growth_rate::exponential_decay(1.4, 1.5, 0.25);
  // Analytic: ∫_1^6 = (1.4/1.5)(1 − e^{−7.5}) + 0.25·5.
  const double expected =
      1.4 / 1.5 * (1.0 - std::exp(-7.5)) + 0.25 * 5.0;
  EXPECT_NEAR(r.integral(1.0, 6.0), expected, 1e-12);
}

TEST(GrowthRate, IntegralEdgeCases) {
  const growth_rate r = growth_rate::paper_hops();
  EXPECT_DOUBLE_EQ(r.integral(3.0, 3.0), 0.0);
  EXPECT_THROW((void)r.integral(3.0, 2.0), std::invalid_argument);
}

TEST(GrowthRate, IntegralAdditivity) {
  const growth_rate r = growth_rate::paper_interest();
  const double whole = r.integral(1.0, 7.0);
  const double parts = r.integral(1.0, 3.5) + r.integral(3.5, 7.0);
  EXPECT_NEAR(whole, parts, 1e-12);
}

TEST(GrowthRate, ClosedFormIntegralMatchesSimpson) {
  // The paper family's closed-form integral against 64-interval Simpson
  // quadrature of the same function (its steep decay carries a large
  // 4th derivative, hence the 1e-5 bound).
  const growth_rate r = growth_rate::paper_hops();
  const auto paper = [](double t) {
    return 1.4 * std::exp(-1.5 * (t - 1.0)) + 0.25;
  };
  EXPECT_NEAR(r.integral(1.0, 6.0), dlm::num::simpson(paper, 1.0, 6.0, 64),
              1e-5);
  EXPECT_NEAR(r(2.5), paper(2.5), 1e-15);
}

TEST(GrowthRate, InvalidDecayParamsThrow) {
  EXPECT_THROW((void)growth_rate::exponential_decay(-1.0, 1.0, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)growth_rate::exponential_decay(1.0, 0.0, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)growth_rate::exponential_decay(1.0, 1.0, -0.1),
               std::invalid_argument);
}

TEST(GrowthRate, LabelsAreDescriptive) {
  EXPECT_NE(growth_rate::paper_hops().label().find("exp_decay"),
            std::string::npos);
  EXPECT_NE(growth_rate::constant(0.3).label().find("constant"),
            std::string::npos);
}

}  // namespace
