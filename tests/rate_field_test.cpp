#include "core/rate_field.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/dl_model.h"
#include "core/dl_parameters.h"

namespace {

using dlm::core::growth_rate;
using dlm::core::rate_field;

TEST(RateField, TemporalLiftIsConstantInSpace) {
  const rate_field field = growth_rate::paper_hops();  // implicit lift
  EXPECT_FALSE(field.spatial());
  EXPECT_TRUE(field.separable_form());
  EXPECT_EQ(field.label(), growth_rate::paper_hops().label());
  EXPECT_DOUBLE_EQ(field.modulation(3.7), 1.0);
  for (const double x : {1.0, 2.5, 6.0}) {
    EXPECT_NEAR(field(x, 1.0), 1.65, 1e-12);
    EXPECT_NEAR(field.integral(1.0, 6.0, x),
                growth_rate::paper_hops().integral(1.0, 6.0), 1e-12);
  }
}

TEST(RateField, SeparableValuesAndExactIntegral) {
  const rate_field field = rate_field::separable(
      growth_rate::exponential_decay(1.4, 1.5, 0.25), {1.5, 1.0, 0.5});
  EXPECT_TRUE(field.spatial());
  EXPECT_TRUE(field.separable_form());

  // Anchored at integer distances (x_anchor = 1 by default).
  EXPECT_NEAR(field(1.0, 1.0), 1.5 * 1.65, 1e-12);
  EXPECT_NEAR(field(2.0, 1.0), 1.0 * 1.65, 1e-12);
  EXPECT_NEAR(field(3.0, 1.0), 0.5 * 1.65, 1e-12);
  // Linear interpolation between anchors, clamped outside them.
  EXPECT_NEAR(field.modulation(1.5), 1.25, 1e-12);
  EXPECT_NEAR(field.modulation(0.2), 1.5, 1e-12);
  EXPECT_NEAR(field.modulation(9.0), 0.5, 1e-12);

  // The integral factors exactly: m(x) · ∫ base.
  const double base_int =
      1.4 / 1.5 * (1.0 - std::exp(-7.5)) + 0.25 * 5.0;  // ∫_1^6 analytic
  EXPECT_NEAR(field.integral(1.0, 6.0, 1.0), 1.5 * base_int, 1e-12);
  EXPECT_NEAR(field.integral(1.0, 6.0, 2.5), 0.75 * base_int, 1e-12);

  EXPECT_NE(field.label().find("spatial("), std::string::npos);
  EXPECT_NE(field.label().find("m=1.5,1,0.5"), std::string::npos);
}

TEST(RateField, SeparableRejectsBadMultipliers) {
  const growth_rate base = growth_rate::constant(0.5);
  EXPECT_THROW((void)rate_field::separable(base, {}), std::invalid_argument);
  EXPECT_THROW((void)rate_field::separable(base, {1.0, -0.1}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)rate_field::separable(base,
                                  {std::numeric_limits<double>::infinity()}),
      std::invalid_argument);
  EXPECT_THROW((void)rate_field::separable(
                   base, {std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
}

TEST(RateField, PerGroupInterpolatesValuesAndExactIntegrals) {
  const rate_field field = rate_field::per_group(
      {growth_rate::constant(0.8), growth_rate::constant(0.2)});
  EXPECT_TRUE(field.spatial());
  EXPECT_FALSE(field.separable_form());
  EXPECT_THROW((void)field.base(), std::logic_error);
  EXPECT_THROW((void)field.modulation(1.0), std::logic_error);

  EXPECT_DOUBLE_EQ(field(1.0, 5.0), 0.8);
  EXPECT_DOUBLE_EQ(field(2.0, 5.0), 0.2);
  EXPECT_NEAR(field(1.25, 5.0), 0.65, 1e-12);  // convex blend
  EXPECT_DOUBLE_EQ(field(0.0, 5.0), 0.8);      // clamped
  EXPECT_DOUBLE_EQ(field(7.0, 5.0), 0.2);

  // The integral blends the groups' exact integrals with the same weights.
  EXPECT_NEAR(field.integral(2.0, 6.0, 1.25), 0.65 * 4.0, 1e-12);
  EXPECT_NE(field.label().find("per-hop("), std::string::npos);
  EXPECT_THROW((void)rate_field::per_group({}), std::invalid_argument);
}

TEST(RateField, IntegralEdgeCases) {
  const rate_field field =
      rate_field::separable(growth_rate::constant(1.0), {2.0});
  EXPECT_DOUBLE_EQ(field.integral(3.0, 3.0, 1.0), 0.0);
  EXPECT_THROW((void)field.integral(3.0, 2.0, 1.0), std::invalid_argument);
}

TEST(RateField, ProfileMatchesPointwiseEvaluation) {
  const rate_field separable = rate_field::separable(
      growth_rate::exponential_decay(1.2, 1.0, 0.3), {1.4, 1.0, 0.6});
  const rate_field per_group = rate_field::per_group(
      {growth_rate::constant(0.2), growth_rate::paper_hops(),
       growth_rate::exponential_decay(0.5, 2.0, 0.1)},
      2.0);
  const std::vector<double> xs{1.0, 1.5, 2.0, 3.5, 6.0};
  std::vector<double> out(xs.size());
  for (const rate_field* field : {&separable, &per_group}) {
    field->profile(2.5, xs, out);
    for (std::size_t i = 0; i < xs.size(); ++i)
      EXPECT_NEAR(out[i], (*field)(xs[i], 2.5), 1e-12);
    field->integral_profile(1.0, 4.0, xs, out);
    for (std::size_t i = 0; i < xs.size(); ++i)
      EXPECT_NEAR(out[i], field->integral(1.0, 4.0, xs[i]), 1e-12);
  }
  std::vector<double> wrong(2);
  EXPECT_THROW(separable.profile(1.0, xs, wrong), std::invalid_argument);
  EXPECT_THROW(separable.integral_profile(1.0, 2.0, xs, wrong),
               std::invalid_argument);
}

TEST(RateField, SolverHonoursSpatialModulation) {
  // Same initial profile, same base rate; boosting the near group and
  // damping the far group must show up in the solved densities relative
  // to the uniform run (paper §V: the rate is now a field the solver
  // consumes per node).
  using dlm::core::dl_model;
  using dlm::core::dl_parameters;
  const std::vector<double> initial{2.0, 1.0, 0.5};
  dl_parameters uniform = dl_parameters::paper_hops(3.0);
  uniform.d = 0.005;  // keep diffusion from washing out the contrast
  dl_parameters spatial = uniform;
  spatial.r = rate_field::separable(growth_rate::paper_hops(),
                                    {1.5, 1.0, 0.4});
  const dl_model u(uniform, initial, 1.0, 6.0);
  const dl_model s(spatial, initial, 1.0, 6.0);
  EXPECT_GT(s.predict(1, 4), u.predict(1, 4));  // boosted near group
  EXPECT_LT(s.predict(3, 4), u.predict(3, 4));  // damped far group
  EXPECT_NEAR(s.predict(2, 4), u.predict(2, 4), 0.35);  // m = 1 in between
}

TEST(RateField, PerGroupAndSeparableConstantsSolveIdentically) {
  // per_group([0.75, 0.5, 0.25]) and separable(0.5, {1.5, 1.0, 0.5})
  // describe the same field when the rates are constants, but exercise
  // the solver's non-separable and hoisted paths respectively — the
  // solutions must agree to solver tolerance.
  using dlm::core::dl_model;
  using dlm::core::dl_parameters;
  const std::vector<double> initial{2.0, 1.0, 0.5};
  dl_parameters a = dl_parameters::paper_hops(3.0);
  a.r = rate_field::per_group({growth_rate::constant(0.75),
                               growth_rate::constant(0.5),
                               growth_rate::constant(0.25)});
  dl_parameters b = a;
  b.r = rate_field::separable(growth_rate::constant(0.5), {1.5, 1.0, 0.5});
  const dl_model ma(a, initial, 1.0, 6.0);
  const dl_model mb(b, initial, 1.0, 6.0);
  for (int x = 1; x <= 3; ++x)
    for (int t = 2; t <= 6; ++t)
      EXPECT_NEAR(ma.predict(x, t), mb.predict(x, t), 1e-9)
          << "x=" << x << " t=" << t;
}

}  // namespace
