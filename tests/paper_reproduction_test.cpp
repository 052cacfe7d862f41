// Pins the paper reproduction: the Table I and Table II accuracies the
// `table1_accuracy_hops` / `table2_accuracy_interests` benches print for
// story s1 on the fixed-seed synthetic dataset (experiment_context::make).
//
// Measured at the pinned seed: Table I overall 90.15% (paper abstract:
// 92.08%), Table II overall 77.81%, Table II distance 5 39.59% (paper:
// 39.84%, the worst row by far).  Tolerance: ±0.5 percentage points on
// each overall figure — wide enough for a last-digit change in the
// solver's rounding, narrow enough that a changed dataset, parameter
// preset or scheme shows.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "eval/experiments.h"

namespace {

using namespace dlm;

const eval::experiment_context& ctx() {
  static const eval::experiment_context context =
      eval::experiment_context::make();
  return context;
}

TEST(PaperReproduction, TableOneOverallAccuracy) {
  const eval::prediction_experiment result = eval::run_prediction(
      ctx(), 0, social::distance_metric::friendship_hops, 6);
  ASSERT_EQ(result.distances.size(), 6u);
  EXPECT_NEAR(100.0 * result.accuracy.overall_average(), 90.15, 0.5)
      << "Table I (s1, friendship hops) overall accuracy; the paper "
         "reports 92.08%";
}

TEST(PaperReproduction, TableTwoOverallAndDistanceFiveAnomaly) {
  const eval::prediction_experiment result = eval::run_prediction(
      ctx(), 0, social::distance_metric::shared_interests, 6);
  ASSERT_EQ(result.distances.size(), 5u);
  EXPECT_NEAR(100.0 * result.accuracy.overall_average(), 77.81, 0.5)
      << "Table II (s1, shared interests) overall accuracy";

  const std::vector<double> rows = result.accuracy.row_averages();
  const auto worst = std::min_element(rows.begin(), rows.end());
  EXPECT_EQ(worst - rows.begin(), 4)
      << "distance 5 must be the worst Table II row, as in the paper "
         "(39.84%); measured distance-5 average " << 100.0 * rows.back()
      << "%";
  EXPECT_NEAR(100.0 * rows.back(), 39.59, 0.5)
      << "Table II distance-5 average; the paper reports 39.84%";
}

}  // namespace
