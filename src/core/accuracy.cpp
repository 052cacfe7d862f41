#include "core/accuracy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dlm::core {

double relative_error(double predicted, double actual) {
  if (actual == 0.0)
    return predicted == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return std::abs(predicted - actual) / std::abs(actual);
}

double prediction_accuracy(double predicted, double actual) {
  const double err = relative_error(predicted, actual);
  if (std::isinf(err)) return 0.0;
  return std::clamp(1.0 - err, 0.0, 1.0);
}

std::vector<double> accuracy_table::row_averages() const {
  std::vector<double> out(cells.size(), 0.0);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    double acc = 0.0;
    for (double v : cells[i]) acc += v;
    out[i] = cells[i].empty() ? 0.0 : acc / static_cast<double>(cells[i].size());
  }
  return out;
}

double accuracy_table::overall_average() const {
  double acc = 0.0;
  std::size_t count = 0;
  for (const auto& row : cells) {
    for (double v : row) {
      acc += v;
      ++count;
    }
  }
  return count > 0 ? acc / static_cast<double>(count) : 0.0;
}

accuracy_table make_accuracy_table(
    std::span<const int> distances, std::span<const double> times,
    const std::vector<std::vector<double>>& predicted,
    const std::vector<std::vector<double>>& actual) {
  if (predicted.size() != distances.size() || actual.size() != distances.size())
    throw std::invalid_argument("make_accuracy_table: row count mismatch");
  accuracy_table table;
  table.distances.assign(distances.begin(), distances.end());
  table.times.assign(times.begin(), times.end());
  table.cells.resize(distances.size());
  for (std::size_t i = 0; i < distances.size(); ++i) {
    if (predicted[i].size() != times.size() || actual[i].size() != times.size())
      throw std::invalid_argument("make_accuracy_table: column count mismatch");
    table.cells[i].resize(times.size());
    for (std::size_t j = 0; j < times.size(); ++j)
      table.cells[i][j] = prediction_accuracy(predicted[i][j], actual[i][j]);
  }
  return table;
}

}  // namespace dlm::core
