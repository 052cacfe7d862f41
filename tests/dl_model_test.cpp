#include "core/dl_model.h"

#include <gtest/gtest.h>

namespace {

using namespace dlm::core;

const std::vector<double> observed{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};

TEST(DlModel, PredictionAtT0ReturnsObservations) {
  const dl_model model(dl_parameters::paper_hops(6.0), observed);
  const std::vector<double> profile = model.predict_profile(1.0);
  ASSERT_EQ(profile.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_NEAR(profile[i], observed[i], 1e-9);
}

TEST(DlModel, PredictionsGrowWithTime) {
  const dl_model model(dl_parameters::paper_hops(6.0), observed);
  for (int x = 1; x <= 6; ++x) {
    double prev = model.predict(x, 1.0);
    for (int t = 2; t <= 10; ++t) {
      const double cur = model.predict(x, t);
      EXPECT_GT(cur, prev) << "x=" << x << " t=" << t;
      prev = cur;
    }
  }
}

TEST(DlModel, HonorsDomainFromParameters) {
  // 5 observations on [1, 5].
  const std::vector<double> five(observed.begin(), observed.begin() + 5);
  const dl_model model(dl_parameters::paper_interest(5.0), five);
  EXPECT_EQ(model.predict_profile(3.0).size(), 5u);
}

TEST(DlModel, AccessorsExposeState) {
  const dl_model model(dl_parameters::paper_hops(6.0), observed, 1.0, 12.0);
  EXPECT_DOUBLE_EQ(model.t0(), 1.0);
  EXPECT_DOUBLE_EQ(model.t_max(), 12.0);
  EXPECT_DOUBLE_EQ(model.parameters().k, 25.0);
  EXPECT_NEAR(model.phi()(2.0), observed[1], 1e-12);
  EXPECT_FALSE(model.solution().times().empty());
}

TEST(DlModel, ObservationCountMustMatchDomain) {
  const std::vector<double> three{1.0, 2.0, 3.0};
  EXPECT_THROW(dl_model(dl_parameters::paper_hops(6.0), three),
               std::invalid_argument);
}

TEST(DlModel, PredictionOutsideSolvedRangeThrows) {
  const dl_model model(dl_parameters::paper_hops(6.0), observed, 1.0, 6.0);
  EXPECT_THROW((void)model.predict(3, 7.0), std::out_of_range);
  EXPECT_THROW((void)model.predict(9, 3.0), std::out_of_range);
}

TEST(DlModel, HigherDiffusionFlattensProfiles) {
  dl_parameters low_d = dl_parameters::paper_hops(6.0);
  low_d.d = 0.001;
  dl_parameters high_d = dl_parameters::paper_hops(6.0);
  high_d.d = 0.3;
  const dl_model low(low_d, observed);
  const dl_model high(high_d, observed);
  // Spread (max - min over distances) shrinks under strong diffusion.
  const auto spread = [](const std::vector<double>& p) {
    double lo = p[0], hi = p[0];
    for (double v : p) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    return hi - lo;
  };
  EXPECT_LT(spread(high.predict_profile(6.0)),
            spread(low.predict_profile(6.0)));
}

}  // namespace
