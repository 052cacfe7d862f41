#include "eval/experiments.h"

#include <gtest/gtest.h>

#include <sstream>

#include "eval/ablations.h"

namespace {

using namespace dlm::eval;
namespace social = dlm::social;

// One shared context: dataset generation is the expensive part.
const experiment_context& ctx() {
  static const experiment_context context =
      experiment_context::make(dlm::digg::test_scale_scenario());
  return context;
}

TEST(Fig2, FractionsFormADistribution) {
  const fig2_result result = run_fig2(ctx());
  ASSERT_EQ(result.story_names.size(), 4u);
  for (const auto& story : result.fraction) {
    double total = 0.0;
    for (double f : story) {
      EXPECT_GE(f, 0.0);
      total += f;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Fig2, MassConcentratesAtLowHops) {
  const fig2_result result = run_fig2(ctx());
  for (const auto& story : result.fraction) {
    const double hops_2_to_5 = story[1] + story[2] + story[3] + story[4];
    EXPECT_GT(hops_2_to_5, 0.7);  // paper: "majority of users at 2..5"
  }
}

TEST(Fig3, DensitiesMonotoneAndOrderedByPopularity) {
  const density_series_result s1 =
      run_density_series(ctx(), 0, social::distance_metric::friendship_hops);
  const density_series_result s4 =
      run_density_series(ctx(), 3, social::distance_metric::friendship_hops);
  // Monotone growth per distance.
  for (const auto& series : s1.density) {
    for (std::size_t h = 1; h < series.size(); ++h)
      EXPECT_GE(series[h], series[h - 1]);
  }
  // The most popular story dominates the least popular at every distance.
  for (std::size_t i = 0; i < std::min(s1.density.size(), s4.density.size());
       ++i) {
    EXPECT_GT(s1.density[i].back(), s4.density[i].back());
  }
}

TEST(Fig3, PopularStoriesSaturateFaster) {
  const density_series_result s1 =
      run_density_series(ctx(), 0, social::distance_metric::friendship_hops);
  const density_series_result s3 =
      run_density_series(ctx(), 2, social::distance_metric::friendship_hops);
  EXPECT_LT(s1.saturation_hour(), s3.saturation_hour() + 2);
}

TEST(Fig4, IncrementsShrinkOverTime) {
  const fig4_result result = run_fig4(ctx());
  const std::vector<double> inc = result.increments_at_distance1();
  ASSERT_GT(inc.size(), 10u);
  // Early increments larger than late ones (motivating decaying r(t)).
  double early = 0.0, late = 0.0;
  for (int h = 0; h < 5; ++h) early += inc[static_cast<std::size_t>(h)];
  for (std::size_t h = inc.size() - 5; h < inc.size(); ++h) late += inc[h];
  EXPECT_GT(early, late);
}

TEST(Fig5, InterestDensityDecreasesWithDistance) {
  const density_series_result result =
      run_density_series(ctx(), 0, social::distance_metric::shared_interests);
  ASSERT_GE(result.distances.size(), 4u);
  const social::density_field field =
      ctx().density(0, social::distance_metric::shared_interests);
  double prev = -1.0;
  for (std::size_t i = 0; i < result.density.size(); ++i) {
    // Skip quantization-dominated tiny groups at this reduced scale.
    if (field.group_size(result.distances[i]) < 30) continue;
    const double cur = result.density[i].back();
    if (prev >= 0.0) {
      EXPECT_GE(prev, cur * 0.95) << "group " << result.distances[i];
    }
    prev = cur;
  }
}

TEST(Fig6, RateDecreasesToFloor) {
  const fig6_result result = run_fig6();
  ASSERT_FALSE(result.rate.empty());
  EXPECT_NEAR(result.rate.front(), 1.65, 1e-9);
  for (std::size_t i = 1; i < result.rate.size(); ++i)
    EXPECT_LT(result.rate[i], result.rate[i - 1]);
  EXPECT_GT(result.rate.back(), 0.25);
}

TEST(Prediction, HopsAccuracyInBand) {
  const prediction_experiment result = run_prediction(
      ctx(), 0, social::distance_metric::friendship_hops, /*max_distance=*/5);
  // Test-scale dataset is noisy; the overall band is loose here — the
  // bench at default scale reproduces the paper's 92.8%.
  EXPECT_GT(result.accuracy.overall_average(), 0.55);
  // t=1 column equals the observed initial profile by construction.
  for (std::size_t i = 0; i < result.distances.size(); ++i)
    EXPECT_DOUBLE_EQ(result.predicted[i][0], result.actual[i][0]);
}

TEST(Prediction, InterestDistance5IsTheWorstRow) {
  const prediction_experiment result = run_prediction(
      ctx(), 0, social::distance_metric::shared_interests, 5);
  const std::vector<double> rows = result.accuracy.row_averages();
  ASSERT_EQ(rows.size(), 5u);
  for (std::size_t i = 0; i + 1 < rows.size(); ++i)
    EXPECT_GT(rows[i], rows.back()) << "row " << i + 1;
}

TEST(PaperReferences, TablesHaveExpectedShape) {
  EXPECT_EQ(paper_table1().size(), 6u);
  EXPECT_EQ(paper_table2().size(), 5u);
  // Row 1 of Table I averages 98.27%.
  EXPECT_DOUBLE_EQ(paper_table1()[0][1], 98.27);
  // Table II's distance-5 anomaly.
  EXPECT_DOUBLE_EQ(paper_table2()[4][1], 39.84);
}

TEST(Printers, ProduceNonEmptyOutput) {
  std::ostringstream out;
  print_fig2(out, run_fig2(ctx()));
  print_fig6(out, run_fig6());
  const prediction_experiment pred = run_prediction(
      ctx(), 0, social::distance_metric::friendship_hops, 5);
  print_fig7(out, pred);
  print_accuracy_table(out, pred, paper_table1(), "Table I");
  EXPECT_GT(out.str().size(), 500u);
  EXPECT_NE(out.str().find("Table I"), std::string::npos);
}

TEST(Ablations, DlBeatsSingleMechanismBaselines) {
  const diffusion_ablation_result result = run_diffusion_ablation(
      ctx(), 0, social::distance_metric::friendship_hops, 5);
  // The full model dominates the diffusion-only baseline decisively and
  // stays competitive with the growth-only baseline (at this reduced
  // scale quantization noise can nudge either way; the bench at default
  // scale shows the decisive comparison).
  EXPECT_GT(result.dl_overall, result.heat_overall);
  EXPECT_GE(result.dl_overall, result.logistic_overall - 0.05);
}

}  // namespace
