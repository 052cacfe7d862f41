// End-to-end tests of the engine calibration workload: "calibrate" rate
// specs running fit::calibrate_dl on the thread pool behind run_sweep,
// memoized per fit in the solve cache, recorded in the result-table fit
// columns,
// and fitted in lockstep across the slices of a batch_sweep chunk.

#include "engine/calibration.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>

#include "core/dl_model.h"
#include "engine/cache_io.h"
#include "engine/scenario_runner.h"

namespace {

using namespace dlm;
using namespace dlm::engine;

/// A surface generated by a known DL model: calibration must recover the
/// generating parameters from the early window alone.
scenario_context surface_from_truth(const core::dl_parameters& truth,
                                    int horizon) {
  const std::vector<double> initial{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};
  const core::dl_model model(truth, initial, 1.0,
                             static_cast<double>(horizon));
  std::vector<std::vector<double>> surface(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    surface[i].push_back(initial[i]);
    for (int t = 2; t <= horizon; ++t)
      surface[i].push_back(model.predict(static_cast<int>(i) + 1, t));
  }
  return scenario_context::from_surface(
      "truth", social::distance_metric::friendship_hops, std::move(surface),
      core::dl_parameters::paper_hops(static_cast<double>(initial.size())));
}

TEST(CalibrateSpec, SyntaxAndWindowResolution) {
  EXPECT_TRUE(is_calibrate_spec("calibrate"));
  EXPECT_TRUE(is_calibrate_spec("calibrate:4"));
  EXPECT_TRUE(is_calibrate_spec("calibrate-fixed"));
  EXPECT_TRUE(is_calibrate_spec("calibrate-fixed:3"));
  EXPECT_FALSE(is_calibrate_spec("preset"));
  EXPECT_FALSE(is_calibrate_spec("calibrated"));
  EXPECT_FALSE(is_calibrate_spec("calibrate-fixedly"));

  // Auto split: fit on the first half of the evaluation window.
  const calibrate_spec auto_split = parse_calibrate_spec("calibrate", 1.0,
                                                         6.0, 6);
  EXPECT_TRUE(auto_split.fit_rate);
  EXPECT_EQ(auto_split.fit_end, 4);  // ceil((1+6)/2)

  const calibrate_spec fixed = parse_calibrate_spec("calibrate-fixed:3", 1.0,
                                                    6.0, 6);
  EXPECT_FALSE(fixed.fit_rate);
  EXPECT_EQ(fixed.fit_end, 3);

  // The horizon caps the window even when t_end overshoots it.
  EXPECT_EQ(parse_calibrate_spec("calibrate", 1.0, 50.0, 8).fit_end, 8);

  EXPECT_THROW((void)parse_calibrate_spec("preset", 1.0, 6.0, 6),
               std::invalid_argument);
  EXPECT_THROW((void)parse_calibrate_spec("calibrate:x", 1.0, 6.0, 6),
               std::invalid_argument);
  EXPECT_THROW((void)parse_calibrate_spec("calibrate:1", 1.0, 6.0, 6),
               std::invalid_argument);  // not after t0
  EXPECT_THROW((void)parse_calibrate_spec("calibrate:7", 1.0, 6.0, 6),
               std::invalid_argument);  // past the window
  EXPECT_THROW((void)parse_calibrate_spec("calibrate", 6.0, 6.0, 6),
               std::invalid_argument);  // empty window
}

TEST(ExpandSweep, CalibrateCollapsesToPresetForNonCalibratingModels) {
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  const scenario_context ctx = surface_from_truth(truth, 6);

  sweep_spec spec;
  spec.models = {"dl", "logistic", "heat"};
  spec.rates = {"preset", "calibrate"};
  const std::vector<scenario> scenarios = expand_sweep(spec, ctx);

  // dl keeps both rates; logistic collapses calibrate into its existing
  // preset run (no duplicate); heat has no rate axis at all.
  std::size_t dl = 0, logistic = 0, heat = 0;
  for (const scenario& sc : scenarios) {
    if (sc.model == "dl") ++dl;
    if (sc.model == "logistic") {
      ++logistic;
      EXPECT_EQ(sc.rate, "preset");
    }
    if (sc.model == "heat") ++heat;
  }
  EXPECT_EQ(dl, 2u);
  EXPECT_EQ(logistic, 1u);
  EXPECT_EQ(heat, 1u);
}

TEST(CalibrationSweep, FixedRateSweepRecoversDiffusionAndCapacity) {
  // Truth shares the preset r(t) but not (d, K): "calibrate-fixed" must
  // recover them from the t <= 3 window.
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  truth.d = 0.08;
  truth.k = 20.0;
  const scenario_context ctx = surface_from_truth(truth, 6);

  sweep_spec spec;
  spec.models = {"dl"};
  spec.rates = {"calibrate-fixed:3"};
  spec.t_end = 6.0;

  runner_options options;
  options.calibration.d_max = 0.3;
  options.calibration.k_min = 5.0;
  options.calibration.k_max = 50.0;
  const sweep_result result = run_sweep(ctx, spec, options);

  ASSERT_EQ(result.table.size(), 1u);
  const result_row& row = result.table.row(0);
  EXPECT_EQ(row.rate, "calibrate-fixed:3");
  EXPECT_EQ(row.resolved_rate, "paper_hops");
  EXPECT_NEAR(row.fit_d, 0.08, 0.02);
  EXPECT_NEAR(row.fit_k, 20.0, 2.0);
  EXPECT_DOUBLE_EQ(row.fit_a, 0.0);  // rate kept, not fitted
  EXPECT_LT(row.fit_sse, 1e-3);
  EXPECT_GT(row.fit_evals, 10u);
  // The fitted model must explain the full surface almost perfectly.
  EXPECT_GT(row.accuracy, 0.97);
}

TEST(CalibrationSweep, FixedRateFitIgnoresCustomBaseRate) {
  // dl_adapter always derives the rate from the spec, so a custom
  // base_params.r never reaches the solve; the (d, K) fit must be driven
  // by the same preset rate the solve will use, not by the custom one.
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  truth.d = 0.08;
  truth.k = 20.0;

  const std::vector<double> initial{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};
  const core::dl_model model(truth, initial, 1.0, 6.0);
  std::vector<std::vector<double>> surface(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    surface[i].push_back(initial[i]);
    for (int t = 2; t <= 6; ++t)
      surface[i].push_back(model.predict(static_cast<int>(i) + 1, t));
  }
  core::dl_parameters base = core::dl_parameters::paper_hops(6.0);
  base.r = core::growth_rate::constant(0.9);  // never used by the engine
  const scenario_context ctx = scenario_context::from_surface(
      "custom-base-rate", social::distance_metric::friendship_hops,
      std::move(surface), base);

  sweep_spec spec;
  spec.models = {"dl"};
  spec.rates = {"calibrate-fixed:3"};
  spec.t_end = 6.0;
  runner_options options;
  options.calibration.d_max = 0.3;
  options.calibration.k_min = 5.0;
  options.calibration.k_max = 50.0;
  const sweep_result result = run_sweep(ctx, spec, options);
  const result_row& row = result.table.row(0);
  EXPECT_EQ(row.resolved_rate, "paper_hops");
  EXPECT_NEAR(row.fit_d, 0.08, 0.02);
  EXPECT_NEAR(row.fit_k, 20.0, 2.0);
  EXPECT_GT(row.accuracy, 0.97);  // fit and solve agree on the rate
}

TEST(CalibrationSweep, FullCalibrationRecoversRateFamilyEndToEnd) {
  // Truth uses a non-preset decay rate; the full 5-parameter "calibrate"
  // fit on the auto window (t <= 4) must land near it and beat the
  // untuned preset run in the same sweep.
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  truth.d = 0.06;
  truth.k = 22.0;
  truth.r = core::growth_rate::exponential_decay(1.2, 1.0, 0.3);
  const scenario_context ctx = surface_from_truth(truth, 6);

  sweep_spec spec;
  spec.models = {"dl"};
  spec.grid = {10};
  spec.rates = {"preset", "calibrate"};
  spec.t_end = 6.0;

  solve_cache cache;
  runner_options options;
  options.cache = &cache;
  options.calibration.coarse_steps = 4;
  const sweep_result cold = run_sweep(ctx, spec, options);

  ASSERT_EQ(cold.table.size(), 2u);
  const result_row& preset = cold.table.row(0);
  const result_row& fitted = cold.table.row(1);
  ASSERT_EQ(fitted.rate, "calibrate");
  EXPECT_TRUE(fitted.resolved_rate.starts_with("decay:"))
      << fitted.resolved_rate;
  EXPECT_GT(fitted.fit_evals, 4u * 4u * 4u * 4u * 4u);  // lattice + refine
  EXPECT_LT(fitted.fit_sse, 0.05);
  EXPECT_GT(fitted.accuracy, 0.95);
  EXPECT_GT(fitted.accuracy, preset.accuracy);
  EXPECT_NEAR(fitted.fit_d, truth.d, 0.05);
  EXPECT_NEAR(fitted.fit_k, truth.k, 3.0);

  // The CSV — fitted-parameter columns, comma-bearing resolved rate and
  // all — must round-trip byte-identically.
  const std::string csv = cold.table.to_csv();
  EXPECT_NE(csv.find("\"decay:"), std::string::npos);  // quoted commas
  EXPECT_EQ(result_table::from_csv(csv).to_csv(), csv);

  // Warm repeat against the same cache: zero additional PDE solves, and
  // the CSV — including the deterministic fit_evals column — identical
  // byte for byte at a different thread count.
  const cache_stats after_cold = cache.stats();
  const std::size_t cold_entries = cache.size();
  runner_options warm_options = options;
  warm_options.threads = 4;
  const sweep_result warm = run_sweep(ctx, spec, warm_options);
  const cache_stats after_warm = cache.stats();
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  EXPECT_GT(after_warm.hits, after_cold.hits);
  // The fit came from its record: no new entry, so no new solve.
  EXPECT_EQ(cache.size(), cold_entries);
  EXPECT_EQ(warm.table.to_csv(), csv);

  // A cold sweep at 1 thread (fresh cache) must agree byte for byte with
  // the pooled cold sweep: the calibration lattice fans out over the
  // pool, but the argmin and refinement are schedule-independent.
  solve_cache fresh;
  runner_options serial = options;
  serial.cache = &fresh;
  serial.threads = 1;
  EXPECT_EQ(run_sweep(ctx, spec, serial).table.to_csv(), csv);
}

/// Four slices in the layout of a Digg dataset — alternating two x-ranges
/// (6 and 5 distance groups), each slice generated by its own DL truth —
/// so calibrate chunks span slices and split into two lockstep groups.
scenario_context four_slices() {
  const std::vector<double> initial{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};
  scenario_context ctx;
  for (int s = 0; s < 4; ++s) {
    const std::size_t groups = s % 2 == 0 ? 6 : 5;
    const std::vector<double> first(initial.begin(),
                                    initial.begin() +
                                        static_cast<std::ptrdiff_t>(groups));
    core::dl_parameters truth =
        core::dl_parameters::paper_hops(static_cast<double>(groups));
    truth.d = 0.04 + 0.02 * s;
    truth.k = 18.0 + 2.0 * s;
    const core::dl_model model(truth, first, 1.0, 6.0);
    dataset_slice slice;
    slice.name = "story" + std::to_string(s / 2) + (s % 2 == 0 ? "/a" : "/b");
    slice.story = "story" + std::to_string(s / 2);
    slice.metric = social::distance_metric::friendship_hops;
    slice.actual.resize(groups);
    for (std::size_t i = 0; i < groups; ++i) {
      slice.actual[i].push_back(first[i]);
      for (int t = 2; t <= 6; ++t)
        slice.actual[i].push_back(model.predict(static_cast<int>(i) + 1, t));
    }
    slice.base_params =
        core::dl_parameters::paper_hops(static_cast<double>(groups));
    ctx.add_slice(std::move(slice));
  }
  return ctx;
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(CalibrationSweep, LockstepLanesKeepCsvAndCacheBytesAtAnyWidth) {
  // calibrate + calibrate-spatial over four slices on every scheme: at
  // batch_width 1 each fit runs alone; at auto the fits of a chunk share
  // rounds (strang-cn and implicit-newton probes as SoA lanes).  Rows —
  // fit_evals included — and the saved cache must not move by a byte.
  const scenario_context ctx = four_slices();
  sweep_spec spec;
  spec.models = {"dl"};
  spec.schemes = {core::dl_scheme::ftcs, core::dl_scheme::strang_cn,
                  core::dl_scheme::implicit_newton, core::dl_scheme::mol_rk4};
  spec.grid = {10};
  spec.rates = {"calibrate", "calibrate-spatial"};
  spec.t_end = 6.0;
  const std::vector<scenario> scenarios = expand_sweep(spec, ctx);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("dlm_lockstep_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::vector<std::string> csv;
  std::vector<std::string> saved;
  for (const std::size_t width : {std::size_t{1}, std::size_t{0}}) {
    // The widths really differ: auto puts all four slices in one chunk.
    std::size_t widest = 0;
    for (const auto& chunk :
         batch_sweep(scenarios, default_registry(), width))
      widest = std::max(widest, chunk.size());
    EXPECT_EQ(widest, width == 1 ? 1u : 4u);

    solve_cache cache;
    runner_options options;
    options.cache = &cache;
    options.threads = 3;
    options.batch_width = width;
    options.calibration.coarse_steps = 2;
    options.calibration.refine_iterations = 60;
    csv.push_back(run_sweep(ctx, scenarios, options).table.to_csv());
    const std::filesystem::path file =
        dir / ("w" + std::to_string(width) + ".cache");
    save_cache(cache, file);
    saved.push_back(file_bytes(file));
  }
  std::filesystem::remove_all(dir);
  ASSERT_EQ(result_table::from_csv(csv[0]).size(), scenarios.size());
  EXPECT_EQ(csv[1], csv[0]);
  EXPECT_FALSE(saved[0].empty());
  EXPECT_EQ(saved[1], saved[0]);
}

/// One truth surface swept with "calibrate-fixed" and "calibrate" on two
/// grids: fits of both record sizes (4 and 7 numbers).
sweep_spec two_fit_spec() {
  sweep_spec spec;
  spec.models = {"dl"};
  spec.grid = {10, 20};
  spec.rates = {"calibrate-fixed:3", "calibrate"};
  spec.t_end = 6.0;
  return spec;
}

runner_options two_fit_options(solve_cache* cache) {
  runner_options options;
  options.cache = cache;
  options.threads = 2;
  options.calibration.coarse_steps = 2;
  options.calibration.refine_iterations = 60;
  return options;
}

TEST(CalibrationSweep, FitRecordKeyCoversTheSearchSettings) {
  // A fit depends on its box and its search budget: sweeps that differ
  // only there must not read each other's records from a shared cache.
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  truth.d = 0.08;
  truth.k = 20.0;
  const scenario_context ctx = surface_from_truth(truth, 6);
  const sweep_spec spec = two_fit_spec();

  runner_options lattice3 = two_fit_options(nullptr);
  lattice3.calibration.coarse_steps = 3;
  runner_options lattice4 = lattice3;
  lattice4.calibration.coarse_steps = 4;
  runner_options narrow = lattice3;
  narrow.calibration.d_max = 0.2;

  solve_cache shared;
  std::vector<std::string> shared_csv;
  for (runner_options options : {lattice3, lattice4, narrow}) {
    options.cache = &shared;
    shared_csv.push_back(run_sweep(ctx, spec, options).table.to_csv());
  }
  std::size_t i = 0;
  for (runner_options options : {lattice3, lattice4, narrow}) {
    solve_cache fresh;
    options.cache = &fresh;
    EXPECT_EQ(shared_csv[i], run_sweep(ctx, spec, options).table.to_csv())
        << "settings " << i;
    ++i;
  }
  // The settings do move the fits, so a key without them would collide.
  EXPECT_NE(shared_csv[0], shared_csv[1]);
  EXPECT_NE(shared_csv[0], shared_csv[2]);
}

TEST(CalibrationSweep, CappedCacheNeverReadsAPartialRecord) {
  // Three entries hold less than one "calibrate" record (5 coordinates,
  // SSE, evaluations): every record is evicted in part as it is stored.
  // The partial leftovers must read as misses — twice over the same
  // capped cache — and the fits rerun to the unbounded run's bytes.
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  truth.d = 0.06;
  truth.k = 22.0;
  truth.r = core::growth_rate::exponential_decay(1.2, 1.0, 0.3);
  const scenario_context ctx = surface_from_truth(truth, 6);
  const sweep_spec spec = two_fit_spec();

  solve_cache unbounded;
  const std::string expected =
      run_sweep(ctx, spec, two_fit_options(&unbounded)).table.to_csv();
  solve_cache capped(3);
  for (int pass = 0; pass < 2; ++pass) {
    const std::size_t misses_before = capped.stats().misses;
    EXPECT_EQ(run_sweep(ctx, spec, two_fit_options(&capped)).table.to_csv(),
              expected)
        << "pass " << pass;
    // Every fit and every trace missed again.
    EXPECT_EQ(capped.stats().misses - misses_before, 8u) << "pass " << pass;
    EXPECT_LE(capped.size(), 3u);
  }

  // One fit alone leaves exactly its record's tail (SSE, evaluations and
  // the last coordinate) in the capped cache: the repeat must miss and
  // refit, not complete the record from what is left.
  const std::vector<scenario> scenarios = expand_sweep(spec, ctx);
  const scenario& fit_all = scenarios.back();
  ASSERT_EQ(fit_all.rate, "calibrate");
  const dataset_slice* const slices[] = {&ctx.slice(fit_all.slice)};
  const fit::calibration_options& base = two_fit_options(nullptr).calibration;
  const scenario_calibration reference =
      calibrate_scenarios({&fit_all, 1}, slices, base, nullptr, nullptr, 1)
          .front();
  solve_cache tail(3);
  for (int pass = 0; pass < 2; ++pass) {
    const scenario_calibration cal =
        calibrate_scenarios({&fit_all, 1}, slices, base, &tail, nullptr, 1)
            .front();
    EXPECT_EQ(cal.fit.x, reference.fit.x) << "pass " << pass;
    EXPECT_EQ(cal.fit.sse, reference.fit.sse) << "pass " << pass;
    EXPECT_EQ(cal.fit.evaluations, reference.fit.evaluations);
    EXPECT_EQ(tail.stats().misses, pass + 1u);
  }
}

TEST(CalibrationSweep, RecordWithANonCountEvaluationNumberIsAMiss) {
  // A cache file is outside input: a fit record whose last number (the
  // evaluation count) is no count must read as a miss and refit, never
  // reach a float-to-integer cast.
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  truth.d = 0.08;
  truth.k = 20.0;
  const scenario_context ctx = surface_from_truth(truth, 6);
  sweep_spec spec;
  spec.models = {"dl"};
  spec.rates = {"calibrate-fixed:3"};
  spec.t_end = 6.0;

  solve_cache cold;
  const std::string csv =
      run_sweep(ctx, spec, two_fit_options(&cold)).table.to_csv();
  const std::vector<solve_cache::value_export> record = cold.export_values();
  ASSERT_EQ(record.size(), 4u);  // d, K, SSE, evaluations
  ASSERT_TRUE(record.back().key.ends_with("|3"));
  for (const double bad : {std::nan(""), -1.0, 1e300}) {
    solve_cache crafted;
    for (const solve_cache::value_export& entry : record)
      crafted.import_value(entry.key,
                           &entry == &record.back() ? bad : entry.value);
    EXPECT_EQ(run_sweep(ctx, spec, two_fit_options(&crafted)).table.to_csv(),
              csv)
        << bad;
  }
}

TEST(BatchSweep, CalibrateChunksNeverMixIncompatibleKeys) {
  const scenario_context ctx = four_slices();
  sweep_spec spec;
  spec.models = {"dl", "logistic", "heat"};
  spec.schemes = {core::dl_scheme::strang_cn,
                  core::dl_scheme::implicit_newton};
  spec.grid = {10, 20};
  spec.rates = {"preset", "calibrate", "calibrate:3", "calibrate-spatial"};
  spec.t_end = 6.0;
  std::vector<scenario> scenarios = expand_sweep(spec, ctx);
  // A repeated scenario (same slice, same key) and a calibrate spec on a
  // model that cannot fit it, appended by hand.
  scenario repeat = scenarios[1];
  ASSERT_TRUE(is_calibrate_spec(repeat.rate));
  scenarios.push_back(repeat);
  scenario unfit;
  unfit.model = "logistic";
  unfit.rate = "calibrate";
  scenarios.push_back(unfit);

  for (const std::size_t width : {std::size_t{0}, std::size_t{1},
                                  std::size_t{2}, std::size_t{3},
                                  std::size_t{8}}) {
    const std::vector<std::vector<std::size_t>> chunks =
        batch_sweep(scenarios, default_registry(), width);
    std::vector<bool> seen(scenarios.size(), false);
    std::size_t multi_lane_calibrate = 0;
    for (const std::vector<std::size_t>& chunk : chunks) {
      ASSERT_FALSE(chunk.empty());
      EXPECT_LE(chunk.size(), width == 0 ? kDefaultBatchWidth : width);
      EXPECT_TRUE(std::is_sorted(chunk.begin(), chunk.end()));
      for (const std::size_t i : chunk) {
        EXPECT_FALSE(seen[i]) << "duplicate index " << i;
        seen[i] = true;
      }
      if (chunk.size() == 1) continue;
      const scenario& first = scenarios[chunk.front()];
      const bool calibrate = is_calibrate_spec(first.rate);
      std::set<std::size_t> slices;
      for (const std::size_t i : chunk) {
        const scenario& sc = scenarios[i];
        EXPECT_EQ(sc.model, "dl");
        EXPECT_EQ(sc.scheme, first.scheme);
        EXPECT_EQ(sc.points_per_unit, first.points_per_unit);
        EXPECT_EQ(sc.dt, first.dt);
        EXPECT_EQ(sc.t0, first.t0);
        EXPECT_EQ(sc.t_end, first.t_end);
        EXPECT_EQ(sc.domain, first.domain);
        EXPECT_EQ(is_calibrate_spec(sc.rate), calibrate);
        if (calibrate) {
          // One spec (so one fit family and window rule), one lane per
          // slice: no two lanes of a round share a cache key.
          EXPECT_EQ(sc.rate, first.rate);
          EXPECT_TRUE(slices.insert(sc.slice).second)
              << "slice " << sc.slice << " twice in a calibrate chunk";
        } else {
          EXPECT_EQ(sc.slice, first.slice);
        }
      }
      if (calibrate) ++multi_lane_calibrate;
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
    // Calibrate lanes do group across slices whenever the width allows.
    if (width != 1) {
      EXPECT_GT(multi_lane_calibrate, 0u) << "width " << width;
    } else {
      EXPECT_EQ(multi_lane_calibrate, 0u);
    }
    // The hand-appended scenarios keep chunks of their own.
    for (const std::vector<std::size_t>& chunk : chunks)
      if (chunk.back() >= scenarios.size() - 2) {
        EXPECT_EQ(chunk.size(), 1u);
      }
  }
}

TEST(CalibrationSweep, FitWithNoSolvableProbeFailsItsRow) {
  // Two calibrations, the second of which cannot solve at all (dt =
  // 1e-300 overflows every probe's step count): the sweep fails with
  // that scenario's identity and the solve failure, not a fit.
  const scenario_context ctx =
      surface_from_truth(core::dl_parameters::paper_hops(6.0), 6);
  scenario good;
  good.model = "dl";
  good.rate = "calibrate-fixed:3";
  good.t_end = 6.0;
  scenario bad = good;
  bad.dt = 1e-300;
  const std::vector<scenario> scenarios{good, bad};
  try {
    (void)run_sweep(ctx, scenarios, {});
    FAIL() << "a fit with no solvable probe must fail its row";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "run_sweep: scenario #1 (model 'dl', slice 'truth') failed: "
              "calibrate_dl: every coarse-lattice probe failed; the first: "
              "solve_dl: step count (t_end - t0)/dt must be finite and "
              "below 2^53");
  }
}

TEST(CalibrationSweep, CalibrateScenarioRejectsUnsupportedModels) {
  const scenario_context ctx =
      surface_from_truth(core::dl_parameters::paper_hops(6.0), 6);
  scenario sc;
  sc.model = "logistic";  // uses_rate but cannot calibrate
  sc.rate = "calibrate";
  sc.t_end = 6.0;
  const std::vector<scenario> scenarios{sc};
  EXPECT_THROW((void)run_sweep(ctx, scenarios, {}), std::runtime_error);
}

}  // namespace
