#include "engine/result_table.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace {

using namespace dlm::engine;

result_row sample_row(std::size_t index) {
  result_row row;
  row.index = index;
  row.model = "dl";
  row.slice = "s1/hops";
  row.story = "s1";
  row.metric = "friendship_hops";
  row.scheme = "strang-cn";
  row.points_per_unit = 20;
  row.dt = 0.02;
  row.rate = "preset";
  row.t0 = 1.0;
  row.t_end = 6.0;
  row.cells = 30;
  row.accuracy = 0.901234567891234567;  // exercises %.17g round-trip
  row.wall_ms = 1.25;
  return row;
}

TEST(ResultTable, CsvRoundTripWithoutTiming) {
  result_row second = sample_row(1);
  second.model = "si";
  second.scheme = "-";
  second.points_per_unit = 0;
  second.dt = 0.0;
  second.rate = "-";
  second.accuracy = 1.0 / 3.0;
  const result_table table({sample_row(0), second});

  const std::string csv = table.to_csv();
  const result_table parsed = result_table::from_csv(csv);
  ASSERT_EQ(parsed.size(), table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_TRUE(parsed.row(i).same_result(table.row(i))) << "row " << i;
    EXPECT_DOUBLE_EQ(parsed.row(i).wall_ms, 0.0);  // timing omitted
  }
  // Re-rendering the parsed table must reproduce the CSV byte for byte.
  EXPECT_EQ(parsed.to_csv(), csv);
}

TEST(ResultTable, CsvRoundTripWithTiming) {
  const result_table table({sample_row(0)});
  const std::string csv = table.to_csv({.include_timing = true});
  const result_table parsed = result_table::from_csv(csv);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.row(0).wall_ms, 1.25);
  EXPECT_EQ(parsed.to_csv({.include_timing = true}), csv);
}

TEST(ResultTable, FromCsvRejectsGarbage) {
  EXPECT_THROW((void)result_table::from_csv(""), std::invalid_argument);
  EXPECT_THROW((void)result_table::from_csv("bogus,header\n1,2\n"),
               std::invalid_argument);
  const std::string csv = result_table({sample_row(0)}).to_csv();
  // Truncated line under a valid header.
  EXPECT_THROW((void)result_table::from_csv(csv + "1,dl,s1\n"),
               std::invalid_argument);
  // Non-numeric field in a numeric column: corrupt the index field of the
  // valid data line.
  const std::size_t header_end = csv.find('\n') + 1;
  EXPECT_THROW((void)result_table::from_csv(csv.substr(0, header_end) + "x" +
                                            csv.substr(header_end + 1)),
               std::invalid_argument);
  // Unterminated quote.
  EXPECT_THROW(
      (void)result_table::from_csv(csv.substr(0, header_end) + "\"broken\n"),
      std::invalid_argument);
}

TEST(ResultTable, CsvQuotesCommaBearingRateSpecs) {
  // The exact shape calibration emits: a requested "calibrate" spec that
  // resolved to a full-precision comma-bearing decay rate.
  result_row row = sample_row(0);
  row.rate = "calibrate";
  row.resolved_rate = "decay:1.3999999999999999,1.5,0.25";
  row.fit_d = 0.0123456789012345678;
  row.fit_k = 24.5;
  row.fit_a = 1.3999999999999999;
  row.fit_b = 1.5;
  row.fit_c = 0.25;
  row.fit_sse = 1.5e-7;
  row.fit_evals = 841;
  // A second row whose *requested* spec is already comma-bearing, plus a
  // quote-and-comma-bearing slice name for the full RFC-4180 treatment.
  result_row second = sample_row(1);
  second.rate = "decay:1.4,1.5,0.25";
  second.resolved_rate = second.rate;
  second.slice = "weird \"slice\", with commas";
  const result_table table({row, second});

  const std::string csv = table.to_csv();
  // The comma-bearing fields must be quoted on write...
  EXPECT_NE(csv.find("\"decay:1.3999999999999999,1.5,0.25\""),
            std::string::npos);
  EXPECT_NE(csv.find("\"weird \"\"slice\"\", with commas\""),
            std::string::npos);
  // ...and the documented byte-identical round-trip must survive them.
  const result_table parsed = result_table::from_csv(csv);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.row(0).resolved_rate, row.resolved_rate);
  EXPECT_EQ(parsed.row(1).rate, second.rate);
  EXPECT_EQ(parsed.row(1).slice, second.slice);
  for (std::size_t i = 0; i < table.size(); ++i)
    EXPECT_TRUE(parsed.row(i).same_result(table.row(i))) << "row " << i;
  EXPECT_EQ(parsed.to_csv(), csv);
}

TEST(ResultTable, BestPicksHighestAccuracy) {
  result_row low = sample_row(0);
  low.accuracy = 0.2;
  result_row high = sample_row(1);
  high.accuracy = 0.9;
  high.model = "per_distance_logistic";
  const result_table table({low, high});
  EXPECT_EQ(table.best().model, "per_distance_logistic");
  EXPECT_THROW((void)result_table().best(), std::out_of_range);
}

TEST(ResultTable, TotalWallTimeSums) {
  result_row a = sample_row(0);
  a.wall_ms = 1.5;
  result_row b = sample_row(1);
  b.wall_ms = 2.5;
  EXPECT_DOUBLE_EQ(result_table({a, b}).total_wall_ms(), 4.0);
}

TEST(ResultTable, TextRenderingMentionsEveryModel) {
  result_row b = sample_row(1);
  b.model = "heat";
  b.scheme = "-";
  const std::string text = result_table({sample_row(0), b}).to_text();
  EXPECT_NE(text.find("dl"), std::string::npos);
  EXPECT_NE(text.find("heat"), std::string::npos);
  EXPECT_NE(text.find("90.12%"), std::string::npos);
}

}  // namespace
