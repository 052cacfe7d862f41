// Descriptive statistics over samples: mean, order statistics, the
// least-squares objective and the extent of a sample.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dlm::num {

/// Arithmetic mean; throws std::invalid_argument on empty input.
[[nodiscard]] double mean(std::span<const double> xs);

/// Median (average of the two central order statistics for even n).
[[nodiscard]] double median(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100].
[[nodiscard]] double percentile(std::span<const double> xs, double p);

/// Sum of squared residuals (the least-squares objective used by fitting).
[[nodiscard]] double sse(std::span<const double> predicted,
                         std::span<const double> actual);

/// Min and max of a non-empty sample.
struct min_max {
  double min = 0.0;
  double max = 0.0;
};
[[nodiscard]] min_max extent(std::span<const double> xs);

}  // namespace dlm::num
