#include "core/accuracy.h"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace dlm::core;

TEST(RelativeError, BasicCases) {
  EXPECT_DOUBLE_EQ(relative_error(11.0, 10.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(9.0, 10.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(relative_error(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(relative_error(1.0, 0.0)));
  EXPECT_DOUBLE_EQ(relative_error(-11.0, -10.0), 0.1);
}

TEST(PredictionAccuracy, PaperConvention) {
  // Accuracy = 1 − relative error (the convention behind Tables I/II).
  EXPECT_DOUBLE_EQ(prediction_accuracy(11.0, 10.0), 0.9);
  EXPECT_DOUBLE_EQ(prediction_accuracy(10.0, 10.0), 1.0);
  // Over-prediction beyond 2x clamps at zero rather than going negative.
  EXPECT_DOUBLE_EQ(prediction_accuracy(30.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(prediction_accuracy(5.0, 0.0), 0.0);
}

accuracy_table sample_table() {
  const std::vector<int> distances{1, 2};
  const std::vector<double> times{2.0, 3.0};
  const std::vector<std::vector<double>> predicted{{10.0, 20.0}, {5.0, 4.0}};
  const std::vector<std::vector<double>> actual{{10.0, 25.0}, {4.0, 4.0}};
  return make_accuracy_table(distances, times, predicted, actual);
}

TEST(AccuracyTable, CellsMatchFormula) {
  const accuracy_table table = sample_table();
  EXPECT_DOUBLE_EQ(table.cells[0][0], 1.0);
  EXPECT_DOUBLE_EQ(table.cells[0][1], 0.8);   // |20-25|/25
  EXPECT_DOUBLE_EQ(table.cells[1][0], 0.75);  // |5-4|/4
  EXPECT_DOUBLE_EQ(table.cells[1][1], 1.0);
}

TEST(AccuracyTable, RowAverages) {
  const accuracy_table table = sample_table();
  const std::vector<double> rows = table.row_averages();
  EXPECT_DOUBLE_EQ(rows[0], 0.9);
  EXPECT_DOUBLE_EQ(rows[1], 0.875);
}

TEST(AccuracyTable, OverallAverage) {
  const accuracy_table table = sample_table();
  EXPECT_DOUBLE_EQ(table.overall_average(), (1.0 + 0.8 + 0.75 + 1.0) / 4.0);
}

TEST(AccuracyTable, EmptyTableAveragesAreZero) {
  const accuracy_table empty;
  EXPECT_DOUBLE_EQ(empty.overall_average(), 0.0);
  EXPECT_TRUE(empty.row_averages().empty());
}

TEST(MakeAccuracyTable, ShapeMismatchThrows) {
  const std::vector<int> distances{1};
  const std::vector<double> times{2.0};
  EXPECT_THROW((void)make_accuracy_table(distances, times, {}, {{1.0}}),
               std::invalid_argument);
  EXPECT_THROW((void)make_accuracy_table(distances, times, {{1.0, 2.0}},
                                         {{1.0}}),
               std::invalid_argument);
}

}  // namespace
