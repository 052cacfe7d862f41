#include "numerics/stats.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dlm::num {
namespace {

void require_nonempty(std::span<const double> xs, const char* who) {
  if (xs.empty()) throw std::invalid_argument(std::string(who) + ": empty input");
}

void require_same_size(std::span<const double> a, std::span<const double> b,
                       const char* who) {
  if (a.size() != b.size())
    throw std::invalid_argument(std::string(who) + ": size mismatch");
  if (a.empty()) throw std::invalid_argument(std::string(who) + ": empty input");
}

}  // namespace

double mean(std::span<const double> xs) {
  require_nonempty(xs, "mean");
  double acc = 0.0;
  for (double v : xs) acc += v;
  return acc / static_cast<double>(xs.size());
}

double median(std::span<const double> xs) {
  require_nonempty(xs, "median");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  if (n % 2 == 1) return sorted[n / 2];
  return 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double percentile(std::span<const double> xs, double p) {
  require_nonempty(xs, "percentile");
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument("percentile: p must be in [0,100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double sse(std::span<const double> predicted, std::span<const double> actual) {
  require_same_size(predicted, actual, "sse");
  double acc = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const double e = predicted[i] - actual[i];
    acc += e * e;
  }
  return acc;
}

min_max extent(std::span<const double> xs) {
  require_nonempty(xs, "extent");
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  return {*lo, *hi};
}

}  // namespace dlm::num
