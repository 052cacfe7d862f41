#include "numerics/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace {

namespace num = dlm::num;

const std::vector<double> sample{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};

TEST(Stats, Mean) { EXPECT_DOUBLE_EQ(num::mean(sample), 5.0); }

TEST(Stats, MedianEvenAndOdd) {
  EXPECT_DOUBLE_EQ(num::median(sample), 4.5);
  EXPECT_DOUBLE_EQ(num::median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
}

TEST(Stats, Percentiles) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(num::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(num::percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(num::percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(num::percentile(xs, 25.0), 2.0);
  EXPECT_THROW((void)num::percentile(xs, 101.0), std::invalid_argument);
}

TEST(Stats, SumOfSquaredResiduals) {
  const std::vector<double> pred{1.0, 2.0, 3.0};
  const std::vector<double> act{1.0, 4.0, 3.0};
  EXPECT_NEAR(num::sse(pred, act), 4.0, 1e-12);
}

TEST(Stats, Extent) {
  const num::min_max mm = num::extent(sample);
  EXPECT_DOUBLE_EQ(mm.min, 2.0);
  EXPECT_DOUBLE_EQ(mm.max, 9.0);
}

TEST(Stats, EmptyInputsThrow) {
  const std::vector<double> empty;
  EXPECT_THROW((void)num::mean(empty), std::invalid_argument);
  EXPECT_THROW((void)num::median(empty), std::invalid_argument);
  EXPECT_THROW((void)num::extent(empty), std::invalid_argument);
  EXPECT_THROW((void)num::sse(empty, empty), std::invalid_argument);
}

}  // namespace
