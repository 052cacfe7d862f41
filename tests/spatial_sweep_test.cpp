// End-to-end tests of the spatial growth-rate axis (paper §V): the
// "spatial:..."/"per-hop:..." spec grammar, its rejection diagnostics,
// canonical cache-key resolution, capability-aware sweep expansion, and
// the "calibrate-spatial" fit family running through run_sweep with
// warm-cache memoization.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/dl_model.h"
#include "engine/calibration.h"
#include "engine/scenario_runner.h"
#include "engine/solve_cache.h"

namespace {

using namespace dlm;
using namespace dlm::engine;

constexpr auto kHops = social::distance_metric::friendship_hops;

/// Expects make_rate(spec) to throw and the message to quote the spec
/// verbatim and carry the accepted grammar.
void expect_rejected(const std::string& spec) {
  try {
    (void)make_rate(spec, kHops);
    FAIL() << "spec '" << spec << "' was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'" + spec + "'"), std::string::npos)
        << "message does not quote the spec: " << what;
    EXPECT_NE(what.find("accepted growth-rate specs"), std::string::npos)
        << "message does not list the grammar: " << what;
  }
}

TEST(MakeRateSpatial, SeparableFormParses) {
  const core::rate_field field = make_rate("spatial:preset|1.5,1,0.5", kHops);
  EXPECT_TRUE(field.spatial());
  EXPECT_TRUE(field.separable_form());
  const double base1 = core::growth_rate::paper_hops()(1.0);
  EXPECT_NEAR(field(1.0, 1.0), 1.5 * base1, 1e-12);
  EXPECT_NEAR(field(1.5, 1.0), 1.25 * base1, 1e-12);  // interpolated
  EXPECT_NEAR(field(9.0, 1.0), 0.5 * base1, 1e-12);   // clamped

  // Any temporal form works as the base.
  const core::rate_field constant_base =
      make_rate("spatial:constant:0.4|2,1", kHops);
  EXPECT_DOUBLE_EQ(constant_base(1.0, 7.0), 0.8);
  EXPECT_DOUBLE_EQ(constant_base(2.0, 7.0), 0.4);
}

TEST(MakeRateSpatial, PerHopFormParses) {
  const core::rate_field field =
      make_rate("per-hop:constant:0.2;constant:0.6", kHops);
  EXPECT_TRUE(field.spatial());
  EXPECT_FALSE(field.separable_form());
  EXPECT_DOUBLE_EQ(field(1.0, 3.0), 0.2);
  EXPECT_DOUBLE_EQ(field(2.0, 3.0), 0.6);
  EXPECT_NEAR(field(1.5, 3.0), 0.4, 1e-12);
  // "preset" entries resolve against the slice metric like anywhere else.
  const core::rate_field mixed = make_rate("per-hop:preset;constant:0.1",
                                           kHops);
  EXPECT_NEAR(mixed(1.0, 1.0), 1.65, 1e-12);
}

TEST(MakeRateSpatial, MalformedSpecsQuoteSpecAndGrammar) {
  expect_rejected("spatial:preset");           // missing '|'
  expect_rejected("spatial:|1,2");             // empty base
  expect_rejected("spatial:preset|");          // empty multiplier
  expect_rejected("spatial:preset|1,,2");      // empty middle multiplier
  expect_rejected("spatial:preset|1,-0.5");    // negative multiplier
  expect_rejected("spatial:preset|abc");       // not a number
  expect_rejected("spatial:bogus|1,2");        // unknown base form
  expect_rejected("spatial:calibrate|1");      // calibrate cannot nest
  expect_rejected("spatial:per-hop:preset|1"); // spatial cannot nest
  expect_rejected("per-hop:");                 // empty entry
  expect_rejected("per-hop:constant:0.5;;constant:0.2");
  expect_rejected("per-hop:constant:0.5;nope");
  expect_rejected("bogus");
  expect_rejected("decay:1.0");
  expect_rejected("calibrate-spatial");        // resolved by run_sweep only
}

TEST(MakeRateSpatial, SyntacticHelpers) {
  EXPECT_TRUE(is_spatial_rate_spec("spatial:preset|1,2"));
  EXPECT_TRUE(is_spatial_rate_spec("per-hop:a;b"));
  EXPECT_FALSE(is_spatial_rate_spec("preset"));
  EXPECT_FALSE(is_spatial_rate_spec("calibrate-spatial"));

  EXPECT_EQ(spatial_base_spec("spatial:constant:0.5|1,2"), "constant:0.5");
  EXPECT_EQ(spatial_base_spec("per-hop:constant:0.5;preset"), "preset");
  EXPECT_EQ(spatial_base_spec("decay:1,1,0.1"), "decay:1,1,0.1");
}

TEST(MakeRateSpatial, ResolveRateSpecCanonicalizesSpatialBases) {
  EXPECT_EQ(resolve_rate_spec("spatial:preset|1.2,0.8", kHops),
            "spatial:paper_hops|1.2,0.8");
  EXPECT_EQ(resolve_rate_spec("spatial:preset|1.2,0.8",
                              social::distance_metric::shared_interests),
            "spatial:paper_interest|1.2,0.8");
  EXPECT_EQ(resolve_rate_spec("spatial:constant:0.5|2", kHops),
            "spatial:constant:0.5|2");
  EXPECT_EQ(resolve_rate_spec("per-hop:preset;constant:0.1", kHops),
            "per-hop:paper_hops;constant:0.1");
}

TEST(CalibrateSpatialSpec, SyntaxAndWindowResolution) {
  EXPECT_TRUE(is_calibrate_spec("calibrate-spatial"));
  EXPECT_TRUE(is_calibrate_spec("calibrate-spatial:3"));
  EXPECT_FALSE(is_calibrate_spec("calibrate-spatially"));

  const calibrate_spec spec =
      parse_calibrate_spec("calibrate-spatial:3", 1.0, 6.0, 6);
  EXPECT_FALSE(spec.fit_rate);  // temporal factor kept
  EXPECT_TRUE(spec.fit_spatial);
  EXPECT_EQ(spec.fit_end, 3);
}

/// A surface generated by a known spatially-modulated DL model.
scenario_context spatial_truth_context(const std::vector<double>& multipliers,
                                       int horizon) {
  const std::vector<double> initial{2.0, 1.1, 0.7, 0.4};
  core::dl_parameters truth =
      core::dl_parameters::paper_hops(static_cast<double>(initial.size()));
  truth.r = core::rate_field::separable(core::growth_rate::paper_hops(),
                                        multipliers);
  const core::dl_model model(truth, initial, 1.0,
                             static_cast<double>(horizon));
  std::vector<std::vector<double>> surface(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    surface[i].push_back(initial[i]);
    for (int t = 2; t <= horizon; ++t)
      surface[i].push_back(model.predict(static_cast<int>(i) + 1, t));
  }
  return scenario_context::from_surface(
      "spatial-truth", kHops, std::move(surface),
      core::dl_parameters::paper_hops(static_cast<double>(initial.size())));
}

TEST(ExpandSweep, SpatialSpecsCollapseForModelsWithoutSpatialAxis) {
  const scenario_context ctx = spatial_truth_context({1.3, 1.0, 0.7, 0.5}, 6);

  sweep_spec spec;
  spec.models = {"dl", "per_distance_logistic", "logistic"};
  spec.rates = {"preset", "spatial:preset|1.3,1,0.7,0.5"};
  const std::vector<scenario> scenarios = expand_sweep(spec, ctx);

  std::size_t dl = 0, per_distance = 0, global = 0;
  for (const scenario& sc : scenarios) {
    if (sc.model == "dl") ++dl;
    if (sc.model == "per_distance_logistic") ++per_distance;
    if (sc.model == "logistic") {
      ++global;
      EXPECT_EQ(sc.rate, "preset");  // collapsed to the base, deduplicated
    }
  }
  EXPECT_EQ(dl, 2u);
  EXPECT_EQ(per_distance, 2u);  // honours r(x, t) per group
  EXPECT_EQ(global, 1u);
}

TEST(SpatialSweep, MixedSweepMemoizesAndRoundTripsDeterministically) {
  // The acceptance sweep: "preset", a concrete spatial field, and the
  // "calibrate-spatial" fit family through one run_sweep, memoized.
  const std::vector<double> truth_m{1.35, 1.0, 0.75, 0.55};
  const scenario_context ctx = spatial_truth_context(truth_m, 6);

  sweep_spec spec;
  spec.models = {"dl"};
  spec.rates = {"preset", "spatial:preset|1.35,1,0.75,0.55",
                "calibrate-spatial:3"};
  spec.t_end = 6.0;

  solve_cache cache;
  runner_options options;
  options.cache = &cache;
  // 6 optimizer dimensions (d, K, m1..m4); the default refinement budget
  // is sized for the 5-dim temporal fit, and a tighter (d, K) box keeps
  // the coarse lattice from trading diffusion against the multipliers.
  options.calibration.refine_iterations = 2000;
  options.calibration.d_max = 0.05;
  options.calibration.k_min = 15.0;
  options.calibration.k_max = 35.0;
  const sweep_result cold = run_sweep(ctx, spec, options);

  ASSERT_EQ(cold.table.size(), 3u);
  const result_row& preset = cold.table.row(0);
  const result_row& fixed_spatial = cold.table.row(1);
  const result_row& fitted = cold.table.row(2);

  // The truth-matching fixed field must beat the uniform preset.
  EXPECT_GT(fixed_spatial.accuracy, preset.accuracy);
  EXPECT_GT(fixed_spatial.accuracy, 0.99);

  // The spatial fit keeps the preset temporal factor, fits (d, K, m...).
  ASSERT_EQ(fitted.rate, "calibrate-spatial:3");
  EXPECT_TRUE(fitted.resolved_rate.starts_with("spatial:paper_hops|"))
      << fitted.resolved_rate;
  ASSERT_EQ(fitted.fit_m.size(), truth_m.size());
  EXPECT_DOUBLE_EQ(fitted.fit_a, 0.0);  // temporal factor not refitted
  EXPECT_LT(fitted.fit_sse, 0.05);
  EXPECT_GT(fitted.accuracy, 0.97);
  // The fitted multipliers must recover the generating profile's shape:
  // strictly decreasing with distance, near group clearly above the far.
  for (std::size_t i = 1; i < fitted.fit_m.size(); ++i)
    EXPECT_LT(fitted.fit_m[i], fitted.fit_m[i - 1]) << "group " << i;
  EXPECT_NEAR(fitted.fit_m.front(), truth_m.front(), 0.25);
  EXPECT_NEAR(fitted.fit_m.back(), truth_m.back(), 0.25);

  // CSV (fit_m is a comma-bearing quoted field) round-trips byte-exactly.
  const std::string csv = cold.table.to_csv();
  EXPECT_NE(csv.find("\"spatial:"), std::string::npos);
  EXPECT_EQ(result_table::from_csv(csv).to_csv(), csv);

  // Warm repeat: zero additional PDE solves, byte-identical CSV at a
  // different thread count.
  const cache_stats after_cold = cache.stats();
  const std::size_t cold_entries = cache.size();
  runner_options warm_options = options;
  warm_options.threads = 4;
  const sweep_result warm = run_sweep(ctx, spec, warm_options);
  const cache_stats after_warm = cache.stats();
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  EXPECT_EQ(cache.size(), cold_entries);
  EXPECT_EQ(warm.table.to_csv(), csv);

  // A fresh serial run agrees byte for byte with the pooled one.
  solve_cache fresh;
  runner_options serial = options;
  serial.cache = &fresh;
  serial.threads = 1;
  EXPECT_EQ(run_sweep(ctx, spec, serial).table.to_csv(), csv);
}

TEST(SpatialSweep, CalibrateSpatialRejectsModelsWithoutSpatialAxis) {
  const scenario_context ctx = spatial_truth_context({1.2, 1.0, 0.8, 0.6}, 6);
  scenario sc;
  sc.model = "logistic";  // uses_rate, cannot honour r(x, t)
  sc.rate = "calibrate-spatial";
  sc.t_end = 6.0;
  const std::vector<scenario> scenarios{sc};
  EXPECT_THROW((void)run_sweep(ctx, scenarios, {}), std::runtime_error);
}

}  // namespace
