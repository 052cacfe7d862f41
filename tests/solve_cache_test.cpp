#include "engine/solve_cache.h"

#include <gtest/gtest.h>

#include "engine/model_registry.h"

namespace {

using namespace dlm;
using namespace dlm::engine;

model_trace sample_trace(double value) {
  model_trace trace;
  trace.distances = {1, 2};
  trace.times = {2.0, 3.0};
  trace.predicted = {{value, value}, {value, value}};
  trace.effective_dt = 0.02;
  return trace;
}

TEST(SolveCache, TraceStoreAndLookupCountsStats) {
  solve_cache cache;
  EXPECT_EQ(cache.find_trace("k"), nullptr);
  cache.store_trace("k", sample_trace(1.5));
  const std::shared_ptr<const model_trace> hit = cache.find_trace("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->predicted[0][0], 1.5);
  const cache_stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SolveCache, ValueStoreAndLookup) {
  solve_cache cache;
  EXPECT_FALSE(cache.find_value("v").has_value());
  cache.store_value("v", 42.0);
  const std::optional<double> hit = cache.find_value("v");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 42.0);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(SolveCache, FirstInsertWins) {
  solve_cache cache;
  cache.store_trace("k", sample_trace(1.0));
  cache.store_trace("k", sample_trace(2.0));
  EXPECT_DOUBLE_EQ(cache.find_trace("k")->predicted[0][0], 1.0);
  cache.store_value("v", 1.0);
  cache.store_value("v", 2.0);
  EXPECT_DOUBLE_EQ(*cache.find_value("v"), 1.0);
}

TEST(SolveCache, UnboundedByDefault) {
  solve_cache cache;
  EXPECT_EQ(cache.max_entries(), 0u);
  for (int i = 0; i < 100; ++i) {
    // Appended, not "k" + std::to_string(i): gcc 12 flags that operator+
    // with a -Wrestrict false positive.
    std::string key = "k";
    key += std::to_string(i);
    cache.store_value(key, static_cast<double>(i));
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(SolveCache, LruCapEvictsOldestAndCountsEvictions) {
  solve_cache cache(2);
  EXPECT_EQ(cache.max_entries(), 2u);
  cache.store_value("a", 1.0);
  cache.store_value("b", 2.0);
  cache.store_value("c", 3.0);  // overflows: "a" is least recently used
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.find_value("a").has_value());
  EXPECT_TRUE(cache.find_value("b").has_value());
  EXPECT_TRUE(cache.find_value("c").has_value());
}

TEST(SolveCache, FindRefreshesRecency) {
  solve_cache cache(2);
  cache.store_value("a", 1.0);
  cache.store_value("b", 2.0);
  EXPECT_TRUE(cache.find_value("a").has_value());  // "a" now most recent
  cache.store_value("c", 3.0);                     // evicts "b", not "a"
  EXPECT_TRUE(cache.find_value("a").has_value());
  EXPECT_FALSE(cache.find_value("b").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SolveCache, CapCountsTracesAndValuesTogether) {
  solve_cache cache(2);
  cache.store_trace("t1", sample_trace(1.0));
  cache.store_value("v1", 1.0);
  cache.store_trace("t2", sample_trace(2.0));  // evicts the "t1" trace
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.find_trace("t1"), nullptr);
  EXPECT_TRUE(cache.find_value("v1").has_value());
  EXPECT_NE(cache.find_trace("t2"), nullptr);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.max_entries(), 2u);  // the cap survives clear()
}

TEST(ResolveRateSpec, PresetResolvesPerMetricOthersPassThrough) {
  EXPECT_EQ(
      resolve_rate_spec("preset", social::distance_metric::friendship_hops),
      "paper_hops");
  EXPECT_EQ(
      resolve_rate_spec("preset", social::distance_metric::shared_interests),
      "paper_interest");
  EXPECT_EQ(resolve_rate_spec("paper_hops",
                              social::distance_metric::shared_interests),
            "paper_hops");
  EXPECT_EQ(resolve_rate_spec("decay:1.4,1.5,0.25",
                              social::distance_metric::friendship_hops),
            "decay:1.4,1.5,0.25");
  EXPECT_EQ(resolve_rate_spec("-", social::distance_metric::friendship_hops),
            "-");
}

TEST(ScenarioCacheKey, PresetAndExplicitPaperRateShareOneEntry) {
  dataset_slice slice;
  slice.name = "s1/hops";
  slice.metric = social::distance_metric::friendship_hops;
  const std::unique_ptr<diffusion_model> dl = default_registry().make("dl");

  scenario preset;
  preset.model = "dl";
  scenario explicit_rate = preset;
  explicit_rate.rate = "paper_hops";
  EXPECT_EQ(scenario_cache_key(preset, slice, *dl),
            scenario_cache_key(explicit_rate, slice, *dl));

  scenario other_rate = preset;
  other_rate.rate = "constant:0.5";
  EXPECT_NE(scenario_cache_key(preset, slice, *dl),
            scenario_cache_key(other_rate, slice, *dl));
}

TEST(ScenarioCacheKey, CollapsesAxesTheModelIgnores) {
  dataset_slice slice;
  slice.name = "s1/hops";
  const std::unique_ptr<diffusion_model> heat =
      default_registry().make("heat");

  // Heat has no scheme, dt or rate axis: those fields must not split the
  // cache.
  scenario a;
  a.model = "heat";
  a.scheme = core::dl_scheme::ftcs;
  a.dt = 0.5;
  a.rate = "constant:0.9";
  scenario b;
  b.model = "heat";
  b.scheme = core::dl_scheme::mol_rk4;
  b.dt = 0.001;
  b.rate = "preset";
  EXPECT_EQ(scenario_cache_key(a, slice, *heat),
            scenario_cache_key(b, slice, *heat));

  // But the grid axis (which heat does consume) must.
  scenario c = a;
  c.points_per_unit = 40;
  EXPECT_NE(scenario_cache_key(a, slice, *heat),
            scenario_cache_key(c, slice, *heat));
}

TEST(ScenarioCacheKey, SameNameDifferentContentNeverAliases) {
  // Sharing one cache across contexts is the documented pattern; a slice
  // *name* reused for different data must still split the cache.
  const auto make_ctx = [](double value) {
    std::vector<std::vector<double>> surface{{value, value + 1.0},
                                             {value, value + 0.5}};
    return scenario_context::from_surface(
        "dup", social::distance_metric::friendship_hops, std::move(surface),
        core::dl_parameters::paper_hops(2.0));
  };
  const scenario_context a = make_ctx(1.0);
  const scenario_context b = make_ctx(2.0);
  const scenario_context same_as_a = make_ctx(1.0);
  const std::unique_ptr<diffusion_model> dl = default_registry().make("dl");
  scenario sc;
  sc.model = "dl";
  EXPECT_NE(scenario_cache_key(sc, a.slice(0), *dl),
            scenario_cache_key(sc, b.slice(0), *dl));
  EXPECT_EQ(scenario_cache_key(sc, a.slice(0), *dl),
            scenario_cache_key(sc, same_as_a.slice(0), *dl));
}

TEST(ScenarioCacheKey, ParameterOverridesSplitTheKey) {
  dataset_slice slice;
  slice.name = "s1/hops";
  const std::unique_ptr<diffusion_model> dl = default_registry().make("dl");

  // A calibrated solve (fitted d/K overrides + concrete decay rate) must
  // not collide with a plain scenario using the same resolved rate but
  // the slice's base parameters.
  scenario plain;
  plain.model = "dl";
  plain.rate = "decay:1.4,1.5,0.25";
  scenario fitted = plain;
  fitted.d_override = 0.08;
  fitted.k_override = 21.5;
  EXPECT_NE(scenario_cache_key(plain, slice, *dl),
            scenario_cache_key(fitted, slice, *dl));
  scenario refitted = fitted;
  refitted.k_override = 22.0;
  EXPECT_NE(scenario_cache_key(fitted, slice, *dl),
            scenario_cache_key(refitted, slice, *dl));
}

}  // namespace
