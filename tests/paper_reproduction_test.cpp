// Pins the paper reproduction: the Table I and Table II accuracies the
// `table1_accuracy_hops` / `table2_accuracy_interests` benches print for
// story s1 on the fixed-seed synthetic dataset, and the Fig. 7 surfaces
// `fig7_predicted_vs_actual` prints — all read from one run of the
// paper's prediction sweep (eval::make_paper_sweeps).
//
// Measured at the pinned seed: Table I overall 90.15% (paper abstract:
// 92.08%), Table II overall 77.81%, Table II distance 5 39.59% (paper:
// 39.84%, the worst row by far).  Tolerance: ±0.5 percentage points on
// each overall figure — wide enough for a last-digit change in the
// solver's rounding, narrow enough that a changed dataset, parameter
// preset or scheme shows.
//
// Fig. 7: the predicted densities at t = 2..6, as the DL model built by
// hand from the hour-1 profile computed them (strang-cn, grid 20,
// dt 0.02).  The sweep reproduced every cell bitwise, and the library
// builds with -ffp-contract=off, so the bound is 1e-12 absolute: it
// admits no change to the scheme, grid, rate or initial condition.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "eval/experiments.h"

namespace {

using namespace dlm;

struct prediction_run {
  eval::paper_sweeps paper;
  engine::sweep_result result;
};

const prediction_run& run() {
  static const prediction_run r = [] {
    prediction_run out{
        eval::make_paper_sweeps(digg::make_dataset(digg::scenario_config{})),
        {}};
    out.result = engine::run_sweep(out.paper.context, out.paper.prediction,
                                   out.paper.options);
    return out;
  }();
  return r;
}

/// Row `row` of the prediction sweep: its slice and the accuracy table of
/// its kept trace.
core::accuracy_table accuracy(std::size_t row) {
  const engine::dataset_slice& slice =
      run().paper.context.slice(run().result.table.row(row).slice);
  return eval::trace_accuracy(run().result.traces.at(row), slice);
}

/// predicted[distance - 1][t - 2] at t = 2..6.
using surface = std::vector<std::vector<double>>;

const surface kFig7Hops = {
    {4.3482479383806831, 5.9162771178881712, 7.1835772640196414,
     8.4494594605970885, 9.7845968979587639},
    {1.9771250835127103, 2.9664963687895378, 3.9040175148413594,
     4.9392603332455103, 6.1225097355361005},
    {2.5581563611257105, 3.6143352309690497, 4.5311335464092553,
     5.5042840834458424, 6.5945615207436123},
    {1.4983523483073367, 2.2166130886428483, 2.8893506854851787,
     3.6397730052931063, 4.5167738147237841},
    {0.94448197661417965, 1.403928925226559, 1.8421146905081489,
     2.3435433041810172, 2.9482989178354266},
    {0.93742110651567434, 1.3876953035789676, 1.8131686926629702,
     2.2971529994915967, 2.8784882551968773},
};

const surface kFig7Interests = {
    {23.829490225859082, 29.25760411802608, 31.473906308744187,
     32.572545306592296, 33.34003634492047},
    {12.550168506251833, 18.460150739817781, 21.86688699722643,
     24.054048956155029, 25.721216130379375},
    {6.2884989274608722, 9.4595888693124479, 11.642837170856954,
     13.334039701524102, 14.840605476499762},
    {2.8265580111973492, 4.7029145321377239, 6.0843626007985012,
     7.1744778986292062, 8.1677619679758404},
    {1.9036808630704654, 3.0510372426001244, 3.9662963601782328,
     4.7780714503092216, 5.5842991339887487},
};

void expect_surface(std::size_t row, const surface& pinned) {
  const engine::model_trace& trace = run().result.traces.at(row);
  ASSERT_EQ(trace.times, (std::vector<double>{2, 3, 4, 5, 6}));
  ASSERT_EQ(trace.predicted.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    ASSERT_EQ(trace.predicted[i].size(), pinned[i].size());
    for (std::size_t j = 0; j < pinned[i].size(); ++j)
      EXPECT_NEAR(trace.predicted[i][j], pinned[i][j], 1e-12)
          << "distance " << i + 1 << ", t = " << trace.times[j];
  }
}

TEST(PaperReproduction, SweepRowsAreTheS1Slices) {
  ASSERT_EQ(run().result.table.size(), 2u);
  EXPECT_EQ(run().result.table.row(0).slice, "s1/hops");
  EXPECT_EQ(run().result.table.row(1).slice, "s1/interests");
}

TEST(PaperReproduction, TableOneOverallAccuracy) {
  const core::accuracy_table table = accuracy(0);
  ASSERT_EQ(table.distances.size(), 6u);
  EXPECT_NEAR(100.0 * table.overall_average(), 90.15, 0.5)
      << "Table I (s1, friendship hops) overall accuracy; the paper "
         "reports 92.08%";
}

TEST(PaperReproduction, TableTwoOverallAndDistanceFiveAnomaly) {
  const core::accuracy_table table = accuracy(1);
  ASSERT_EQ(table.distances.size(), 5u);
  EXPECT_NEAR(100.0 * table.overall_average(), 77.81, 0.5)
      << "Table II (s1, shared interests) overall accuracy";

  const std::vector<double> rows = table.row_averages();
  const auto worst = std::min_element(rows.begin(), rows.end());
  EXPECT_EQ(worst - rows.begin(), 4)
      << "distance 5 must be the worst Table II row, as in the paper "
         "(39.84%); measured distance-5 average " << 100.0 * rows.back()
      << "%";
  EXPECT_NEAR(100.0 * rows.back(), 39.59, 0.5)
      << "Table II distance-5 average; the paper reports 39.84%";
}

TEST(PaperReproduction, FigureSevenHopsSurface) {
  expect_surface(0, kFig7Hops);
}

TEST(PaperReproduction, FigureSevenInterestsSurface) {
  expect_surface(1, kFig7Interests);
}

}  // namespace
