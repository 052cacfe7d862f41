// Prediction-accuracy metrics (paper Eq. 8, Tables I & II).
//
// ERRATUM HANDLED: the paper's Eq. 8 literally reads
//   "Prediction accuracy = |predicted − actual| / actual"
// which is the relative *error*; the values reported in Tables I/II
// (92–99%) are plainly 1 − that quantity.  Both are exposed here;
// `prediction_accuracy` returns the paper's reported convention
// (1 − relative error, clamped below at 0).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dlm::core {

/// |predicted − actual| / |actual|; +inf when actual == 0 and
/// predicted != 0, zero when both are 0.
[[nodiscard]] double relative_error(double predicted, double actual);

/// 1 − relative_error, clamped into [0, 1] (the paper's table values).
[[nodiscard]] double prediction_accuracy(double predicted, double actual);

/// A distance × time accuracy table in the paper's Table I/II layout.
struct accuracy_table {
  std::vector<int> distances;       ///< row labels (x values)
  std::vector<double> times;        ///< column labels (t values)
  /// cells[i][j] = prediction_accuracy at (distances[i], times[j]).
  std::vector<std::vector<double>> cells;

  /// Per-distance average across times (the paper's "Average" column).
  [[nodiscard]] std::vector<double> row_averages() const;

  /// Mean of all cells (the paper's "overall average prediction accuracy
  /// across all distances").
  [[nodiscard]] double overall_average() const;
};

/// Builds the table from predicted/actual surfaces laid out as
/// [distance index][time index] (equal shapes, matching the label spans).
[[nodiscard]] accuracy_table make_accuracy_table(
    std::span<const int> distances, std::span<const double> times,
    const std::vector<std::vector<double>>& predicted,
    const std::vector<std::vector<double>>& actual);

}  // namespace dlm::core
