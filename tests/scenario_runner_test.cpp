#include "engine/scenario_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "digg/simulator.h"
#include "engine/model_registry.h"

namespace {

using namespace dlm;
using namespace dlm::engine;

/// A small synthetic surface: logistic-ish growth, faster near the source.
scenario_context synthetic_context() {
  const int max_d = 5;
  const int horizon = 8;
  std::vector<std::vector<double>> actual(max_d);
  for (int x = 1; x <= max_d; ++x) {
    for (int t = 1; t <= horizon; ++t) {
      const double k = 25.0;
      const double n0 = 2.0 / x;
      const double grown =
          k / (1.0 + (k - n0) / n0 * std::exp(-0.8 * (t - 1.0)));
      actual[static_cast<std::size_t>(x - 1)].push_back(grown);
    }
  }
  return scenario_context::from_surface(
      "synthetic", social::distance_metric::friendship_hops, std::move(actual),
      core::dl_parameters::paper_hops(max_d));
}

sweep_spec synthetic_sweep() {
  sweep_spec spec;
  spec.models = {"dl", "heat", "logistic", "per_distance_logistic"};
  spec.schemes = {core::dl_scheme::ftcs, core::dl_scheme::strang_cn,
                  core::dl_scheme::implicit_newton, core::dl_scheme::mol_rk4};
  spec.grid = {10, 20};
  spec.rates = {"preset", "constant:0.8"};
  spec.t_end = 8.0;
  return spec;
}

TEST(ExpandSweep, CollapsesAxesAModelIgnores) {
  const scenario_context ctx = synthetic_context();
  const std::vector<scenario> scenarios =
      expand_sweep(synthetic_sweep(), ctx);
  // dl: 4 schemes × 2 grids × 2 rates = 16; heat: 2 grids; logistic: 2
  // rates; per_distance_logistic: 2 rates.
  EXPECT_EQ(scenarios.size(), 16u + 2u + 2u + 2u);
  std::size_t dl_count = 0;
  for (const scenario& sc : scenarios) {
    if (sc.model == "dl") ++dl_count;
  }
  EXPECT_EQ(dl_count, 16u);
}

TEST(ExpandSweep, RejectsBadInput) {
  const scenario_context ctx = synthetic_context();
  sweep_spec empty_models;
  EXPECT_THROW((void)expand_sweep(empty_models, ctx), std::invalid_argument);
  sweep_spec unknown_model;
  unknown_model.models = {"sir"};
  EXPECT_THROW((void)expand_sweep(unknown_model, ctx), std::invalid_argument);
  sweep_spec bad_slice;
  bad_slice.models = {"dl"};
  bad_slice.slices = {7};
  EXPECT_THROW((void)expand_sweep(bad_slice, ctx), std::out_of_range);
}

TEST(ScenarioRunner, SingleVsManyThreadsProduceIdenticalCsv) {
  const scenario_context ctx = synthetic_context();
  const std::vector<scenario> scenarios =
      expand_sweep(synthetic_sweep(), ctx);

  runner_options serial;
  serial.threads = 1;
  const sweep_result one = run_sweep(ctx, scenarios, serial);

  runner_options parallel;
  parallel.threads = 4;
  const sweep_result many = run_sweep(ctx, scenarios, parallel);

  ASSERT_EQ(one.table.size(), scenarios.size());
  EXPECT_EQ(one.table.to_csv(), many.table.to_csv());
  // Timing differs run to run, but the scored payload must not.
  for (std::size_t i = 0; i < one.table.size(); ++i)
    EXPECT_TRUE(one.table.row(i).same_result(many.table.row(i)));
}

TEST(ScenarioRunner, RowsAreIndexOrderedAndScored) {
  const scenario_context ctx = synthetic_context();
  const std::vector<scenario> scenarios =
      expand_sweep(synthetic_sweep(), ctx);
  runner_options options;
  options.threads = 4;
  const sweep_result result = run_sweep(ctx, scenarios, options);
  for (std::size_t i = 0; i < result.table.size(); ++i) {
    const result_row& row = result.table.row(i);
    EXPECT_EQ(row.index, i);
    EXPECT_EQ(row.model, scenarios[i].model);
    EXPECT_GT(row.cells, 0u);
    EXPECT_GE(row.accuracy, 0.0);
    EXPECT_LE(row.accuracy, 1.0);
    EXPECT_GE(row.wall_ms, 0.0);
  }
  // The synthetic surface is per-distance logistic growth with r = 0.8, so
  // that model under the matching rate must fit almost perfectly and the
  // mass-conserving heat baseline must not.
  double best_pdl = 0.0, best_heat = 0.0;
  for (const result_row& row : result.table.rows()) {
    if (row.model == "per_distance_logistic" && row.rate == "constant:0.8")
      best_pdl = std::max(best_pdl, row.accuracy);
    if (row.model == "heat") best_heat = std::max(best_heat, row.accuracy);
  }
  EXPECT_GT(best_pdl, 0.99);
  EXPECT_LT(best_heat, best_pdl);
}

TEST(ScenarioRunner, KeepTracesAlignsWithRows) {
  const scenario_context ctx = synthetic_context();
  sweep_spec spec;
  spec.models = {"dl"};
  spec.t_end = 8.0;
  runner_options options;
  options.keep_traces = true;
  const sweep_result result = run_sweep(ctx, spec, options);
  ASSERT_EQ(result.traces.size(), result.table.size());
  const model_trace& trace = result.traces[0];
  EXPECT_EQ(trace.distances.size(), 5u);
  EXPECT_EQ(trace.times.size(), 7u);  // hours 2..8
  EXPECT_EQ(trace.predicted.size(), trace.distances.size());
}

TEST(ScenarioRunner, ErrorsInWorkersPropagateWithScenarioContext) {
  const scenario_context ctx = synthetic_context();
  scenario ok;
  ok.model = "dl";
  ok.t_end = 8.0;
  scenario si;  // synthetic slice has no follower graph
  si.model = "si";
  si.t_end = 8.0;
  const std::vector<scenario> scenarios{ok, si};
  runner_options options;
  options.threads = 2;
  // The failure is wrapped with the scenario's index, model and slice so
  // a one-in-N sweep failure is diagnosable.
  try {
    (void)run_sweep(ctx, scenarios, options);
    FAIL() << "run_sweep should have thrown";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("scenario #1"), std::string::npos) << message;
    EXPECT_NE(message.find("model 'si'"), std::string::npos) << message;
    EXPECT_NE(message.find("slice 'synthetic'"), std::string::npos) << message;
    EXPECT_NE(message.find("follower graph"), std::string::npos) << message;
  }
}

TEST(ScenarioRunner, ErrorReportsLowestFailingIndex) {
  const scenario_context ctx = synthetic_context();
  scenario si;
  si.model = "si";
  si.t_end = 8.0;
  // Two failures: the wrapped error must name the lower index regardless
  // of thread scheduling.
  const std::vector<scenario> scenarios{si, si};
  runner_options options;
  options.threads = 4;
  try {
    (void)run_sweep(ctx, scenarios, options);
    FAIL() << "run_sweep should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("scenario #0"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioRunner, SolveCacheKeepsCsvIdenticalAndSkipsResolves) {
  const scenario_context ctx = synthetic_context();
  const std::vector<scenario> scenarios =
      expand_sweep(synthetic_sweep(), ctx);

  const sweep_result plain = run_sweep(ctx, scenarios, {});

  solve_cache cache;
  runner_options cached;
  cached.cache = &cache;
  cached.threads = 4;
  const sweep_result cold = run_sweep(ctx, scenarios, cached);
  const cache_stats after_cold = cache.stats();
  EXPECT_GT(after_cold.misses, 0u);

  // Warm repeat: no new misses (zero additional solves), same CSV — at a
  // different thread count, too.
  runner_options warm_serial = cached;
  warm_serial.threads = 1;
  const sweep_result warm = run_sweep(ctx, scenarios, warm_serial);
  const cache_stats after_warm = cache.stats();
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  EXPECT_EQ(after_warm.hits, after_cold.hits + scenarios.size());

  EXPECT_EQ(cold.table.to_csv(), plain.table.to_csv());
  EXPECT_EQ(warm.table.to_csv(), plain.table.to_csv());
}

/// The small calibrated dataset, built once for the dataset sweeps.
const scenario_context& dataset_context() {
  static const scenario_context ctx = scenario_context::from_dataset(
      digg::make_dataset(digg::test_scale_scenario()));
  return ctx;
}

TEST(ScenarioRunner, DatasetSweepCoversAllModelsDeterministically) {
  // Full five-family sweep (incl. the RNG-seeded SI model) on the small
  // calibrated dataset: the CSV must be identical at 1 and 4 threads.
  const scenario_context& ctx = dataset_context();
  ASSERT_GE(ctx.slice_count(), 2u);

  sweep_spec spec;
  spec.models = default_registry().names();
  spec.slices = {0, 1};

  runner_options serial;
  serial.threads = 1;
  runner_options parallel;
  parallel.threads = 4;
  const sweep_result one = run_sweep(ctx, spec, serial);
  const sweep_result many = run_sweep(ctx, spec, parallel);
  EXPECT_EQ(one.table.to_csv(), many.table.to_csv());
  EXPECT_EQ(one.table.size(), 10u);  // 5 models × 2 slices, axes collapsed
}

TEST(ScenarioRunner, SchemesAgreeOnTheDatasetSweep) {
  // bench/ablation_solver_scheme's sweep: DL under all four schemes on
  // s1/hops and s1/interests.  The paper regime is smooth, so the schemes
  // differ in cost and stability margin, not in accuracy.
  sweep_spec spec;
  spec.models = {"dl"};
  spec.slices = {0, 1};
  spec.schemes = {core::dl_scheme::ftcs, core::dl_scheme::strang_cn,
                  core::dl_scheme::implicit_newton, core::dl_scheme::mol_rk4};
  const sweep_result result = run_sweep(dataset_context(), spec);
  ASSERT_EQ(result.table.size(), 8u);
  // Overall accuracy range over the four schemes, per slice.
  std::map<std::string, std::pair<double, double>> range;
  for (const result_row& row : result.table.rows()) {
    auto& [lo, hi] =
        range.try_emplace(row.slice, row.accuracy, row.accuracy)
            .first->second;
    lo = std::min(lo, row.accuracy);
    hi = std::max(hi, row.accuracy);
  }
  ASSERT_EQ(range.size(), 2u);
  for (const auto& [slice, lo_hi] : range)
    EXPECT_LE(lo_hi.second - lo_hi.first, 0.02)
        << "scheme accuracies spread on " << slice;
}

TEST(MakeRate, ParsesEveryForm) {
  EXPECT_DOUBLE_EQ(
      make_rate("preset", social::distance_metric::friendship_hops)(1.0, 1.0),
      core::growth_rate::paper_hops()(1.0));
  EXPECT_DOUBLE_EQ(
      make_rate("preset", social::distance_metric::shared_interests)(1.0, 1.0),
      core::growth_rate::paper_interest()(1.0));
  EXPECT_DOUBLE_EQ(make_rate("constant:0.5",
                             social::distance_metric::friendship_hops)(1.0,
                                                                       9.0),
                   0.5);
  const core::rate_field decay =
      make_rate("decay:1.4,1.5,0.25", social::distance_metric::friendship_hops);
  EXPECT_NEAR(decay(1.0, 1.0), 1.65, 1e-12);
  EXPECT_THROW(
      (void)make_rate("bogus", social::distance_metric::friendship_hops),
      std::invalid_argument);
  EXPECT_THROW(
      (void)make_rate("constant:abc", social::distance_metric::friendship_hops),
      std::invalid_argument);
  EXPECT_THROW(
      (void)make_rate("decay:1.0", social::distance_metric::friendship_hops),
      std::invalid_argument);
}

TEST(ScenarioContext, SliceLookupAndValidation) {
  scenario_context ctx = synthetic_context();
  EXPECT_EQ(ctx.slice_count(), 1u);
  EXPECT_EQ(ctx.slice("synthetic").name, "synthetic");
  EXPECT_THROW((void)ctx.slice("nope"), std::invalid_argument);
  EXPECT_THROW((void)ctx.slice(3), std::out_of_range);

  dataset_slice empty;
  empty.name = "empty";
  EXPECT_THROW((void)ctx.add_slice(std::move(empty)), std::invalid_argument);

  dataset_slice ragged;
  ragged.name = "ragged";
  ragged.actual = {{1.0, 2.0}, {1.0}};
  EXPECT_THROW((void)ctx.add_slice(std::move(ragged)), std::invalid_argument);

  dataset_slice duplicate;
  duplicate.name = "synthetic";
  duplicate.actual = {{1.0}};
  EXPECT_THROW((void)ctx.add_slice(std::move(duplicate)),
               std::invalid_argument);
}

}  // namespace
