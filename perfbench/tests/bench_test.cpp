// The benchmark's own tests: estimators on known samples, runner
// reconstruction from synthetic timestamps, the serve request stream,
// and the counters the traced run reconciles.
//
//   cmake --build .bench_build --target dlbench_test && .bench_build/dlbench_test
//
// (python3 perfbench/run.py --self-test does both.)

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "common.h"
#include "core/dl_model.h"
#include "engine/result_table.h"
#include "engine/scenario_runner.h"
#include "layers.h"
#include "request_stream.h"
#include "stats.h"
#include "trace.h"

namespace {

using namespace perfbench;
namespace engine = dlm::engine;

// ------------------------------------------------------------ estimators

TEST(Estimators, QuartilesMatchPythonStatisticsQuantiles) {
  // Expected values are statistics.quantiles(samples, n=4) in Python 3.
  const summary a = summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.median, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  EXPECT_EQ(a.n, 10u);
  const summary b = summarize({4, 2, 3, 1});
  EXPECT_DOUBLE_EQ(b.q1, 1.25);
  EXPECT_DOUBLE_EQ(b.median, 2.5);
  EXPECT_DOUBLE_EQ(b.q3, 3.75);
  const summary c = summarize({3, 1, 2});
  EXPECT_DOUBLE_EQ(c.q1, 1.0);
  EXPECT_DOUBLE_EQ(c.median, 2.0);
  EXPECT_DOUBLE_EQ(c.q3, 3.0);
  const summary d = summarize({1, 2});
  EXPECT_DOUBLE_EQ(d.q1, 0.75);
  EXPECT_DOUBLE_EQ(d.q3, 2.25);
  const summary e = summarize({0.5, 0.1, 0.9, 0.3, 0.7});
  EXPECT_NEAR(e.q1, 0.2, 1e-15);
  EXPECT_DOUBLE_EQ(e.median, 0.5);
  EXPECT_NEAR(e.q3, 0.8, 1e-15);
  const summary one = summarize({7.0});
  EXPECT_EQ(one.n, 1u);
  EXPECT_DOUBLE_EQ(one.q1, 7.0);
  EXPECT_DOUBLE_EQ(one.q3, 7.0);
  EXPECT_THROW((void)summarize({}), std::invalid_argument);
}

TEST(Estimators, NearestRankPercentiles) {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(hundred, 50), 50.0);
  EXPECT_DOUBLE_EQ(percentile(hundred, 99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(hundred, 100), 100.0);
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(thousand, 99), 990.0);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 99), 5.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0}, 99), 3.0);
  EXPECT_DOUBLE_EQ(median({1.0, 9.0, 3.0, 7.0}), 5.0);
  // Middle half: of 1..8, the values 3..6.
  EXPECT_DOUBLE_EQ(interquartile_mean({8, 1, 7, 2, 6, 3, 5, 4}), 4.5);
  EXPECT_DOUBLE_EQ(interquartile_mean({1, 2, 3, 100}), 2.5);
  EXPECT_DOUBLE_EQ(interquartile_mean({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(interquartile_mean({7}), 7.0);
  // A bimodal sample whose fast share crosses one half: the median jumps
  // from one mode to the other, the interquartile mean moves in step.
  std::vector<double> slow_phase(45, 18.0), fast_phase(55, 18.0);
  slow_phase.resize(100, 28.0);
  fast_phase.resize(100, 28.0);
  EXPECT_DOUBLE_EQ(median(slow_phase), 28.0);
  EXPECT_DOUBLE_EQ(median(fast_phase), 18.0);
  EXPECT_NEAR(interquartile_mean(slow_phase) - interquartile_mean(fast_phase),
              10.0 * 10.0 / 50.0, 1e-9);
  EXPECT_THROW((void)percentile({1.0}, 0.0), std::invalid_argument);
}

// ------------------------------------------------- runner reconstruction

TEST(RunnerReconstruction, ChunksBusyFractionAndTail) {
  // Thread 1 runs chunks 0 and 2; thread 2 runs chunk 1 (two solves) and
  // chunk 3 (all cache hits: no solve).  A solve on thread 1 before its
  // first hook is ignored.
  const std::vector<chunk_start> starts{
      {2, 1, 1.2}, {0, 1, 0.0}, {1, 2, 0.1}, {3, 2, 1.0}};
  const std::vector<solve_span> solves{{1, -0.5, -0.2}, {1, 0.5, 1.0},
                                       {2, 0.2, 0.4},   {2, 0.6, 0.9},
                                       {1, 1.3, 2.0}};
  const std::vector<chunk_span> chunks = reconstruct_chunks(starts, solves);
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_DOUBLE_EQ(chunks[0].start, 0.0);
  EXPECT_DOUBLE_EQ(chunks[0].end, 1.0);
  EXPECT_DOUBLE_EQ(chunks[0].solve_s, 0.5);
  EXPECT_DOUBLE_EQ(chunks[1].end, 0.9);
  EXPECT_NEAR(chunks[1].solve_s, 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(chunks[2].end, 2.0);
  EXPECT_DOUBLE_EQ(chunks[3].start, 1.0);
  EXPECT_DOUBLE_EQ(chunks[3].end, 1.0);
  EXPECT_DOUBLE_EQ(chunks[3].solve_s, 0.0);

  const runner_profile two = profile_runner(chunks, 0.0, 2.5, 2);
  EXPECT_NEAR(two.busy_frac, (1.0 + 0.8 + 0.8 + 0.0) / (2 * 2.5), 1e-12);
  EXPECT_NEAR(two.tail_s, 1.5, 1e-12);  // thread 2 idle from 1.0
  EXPECT_NEAR(two.chunk_max_s, 1.0, 1e-12);
  // A third thread that never ran a chunk was idle from the start, so the
  // second-to-last thread to go idle is still thread 2.
  const runner_profile three = profile_runner(chunks, 0.0, 2.5, 3);
  EXPECT_NEAR(three.tail_s, 1.5, 1e-12);
  EXPECT_NEAR(three.busy_frac, 2.6 / 7.5, 1e-12);
  EXPECT_DOUBLE_EQ(profile_runner(chunks, 0.0, 2.5, 1).tail_s, 0.0);
}

// --------------------------------------------------------- request stream

std::vector<slice_info> demo_slices() {
  return {{"s1/hops", 6}, {"s1/interests", 5}, {"s2/hops", 6}};
}

TEST(RequestStream, ReproducibleFromSeedAndClient) {
  request_stream a(demo_slices(), 42, 0);
  request_stream b(demo_slices(), 42, 0);
  request_stream other_client(demo_slices(), 42, 1);
  request_stream other_seed(demo_slices(), 43, 0);
  std::size_t differ_client = 0;
  std::size_t differ_seed = 0;
  for (int i = 0; i < 1000; ++i) {
    const serve_request ra = a.next();
    EXPECT_EQ(ra.text, b.next().text);
    differ_client += ra.text != other_client.next().text ? 1 : 0;
    differ_seed += ra.text != other_seed.next().text ? 1 : 0;
  }
  EXPECT_GT(differ_client, 100u);
  EXPECT_GT(differ_seed, 100u);
}

TEST(RequestStream, MissShareAboveOnePercentAndMissesFresh) {
  std::set<std::string> miss_texts;
  std::size_t total = 0;
  for (std::size_t client = 0; client < 4; ++client) {
    request_stream s(demo_slices(), 20090601, client);
    for (std::size_t block = 0; block < 100; ++block) {
      std::map<std::string, int> domains;
      for (std::size_t i = 0; i < kBlock; ++i) {
        const serve_request r = s.next();
        ++total;
        if (!r.miss) {
          EXPECT_TRUE(r.text.starts_with("predict "));
          EXPECT_GE(r.x, 1);
          EXPECT_LE(r.t, kLastHour);
          continue;
        }
        ++domains[r.domain];
        EXPECT_TRUE(miss_texts.insert(r.text).second) << r.text;
      }
      EXPECT_EQ(domains.size(), kMissesPerBlock);
      for (const auto& [domain, n] : domains) EXPECT_EQ(n, 1) << domain;
    }
  }
  const double share =
      static_cast<double>(miss_texts.size()) / static_cast<double>(total);
  EXPECT_GT(share, 0.01);
  EXPECT_DOUBLE_EQ(share, static_cast<double>(kMissesPerBlock) / kBlock);
}

// ------------------------------------------------- counter reconciliation

engine::scenario_context demo_context() {
  dlm::core::dl_parameters truth = dlm::core::dl_parameters::paper_hops(6.0);
  const std::vector<double> initial{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};
  const dlm::core::dl_model model(truth, initial, 1.0, 6.0);
  std::vector<std::vector<double>> surface(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    surface[i].push_back(initial[i]);
    for (int t = 2; t <= 6; ++t)
      surface[i].push_back(model.predict(static_cast<int>(i) + 1, t));
  }
  return engine::scenario_context::from_surface(
      "demo", dlm::social::distance_metric::friendship_hops,
      std::move(surface), dlm::core::dl_parameters::paper_hops(6.0));
}

engine::sweep_spec demo_spec() {
  engine::sweep_spec spec;
  spec.models = {"dl", "heat"};
  spec.schemes = {dlm::core::dl_scheme::strang_cn,
                  dlm::core::dl_scheme::implicit_newton};
  spec.grid = {10, 20};
  spec.rates = {"preset", "constant:0.3", "constant:0.4", "calibrate-fixed"};
  return spec;
}

TEST(Counters, ChunksLanesAndCacheReconcile) {
  const engine::scenario_context context = demo_context();
  recorder rec;
  const engine::model_registry registry = make_traced_registry(rec);
  engine::solve_cache cache;
  const cache_observation seen(cache);
  engine::runner_options options;
  options.threads = 2;
  options.registry = &registry;
  options.cache = &cache;
  options.calibration.coarse_steps = 2;
  options.calibration.refine_iterations = 20;
  options.on_chunk_start = [&rec](std::size_t c) { rec.chunk_started(c); };

  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(demo_spec(), context, registry);
  const auto chunks = engine::batch_sweep(scenarios, registry, 0);
  const double start = rec.now();
  const engine::sweep_result traced =
      engine::run_sweep(context, scenarios, options);
  const double end = rec.now();

  // The decorator is transparent: same CSV as the plain registry.
  engine::runner_options plain;
  plain.threads = 2;
  plain.calibration = options.calibration;
  EXPECT_EQ(traced.table.to_csv(),
            engine::run_sweep(context, demo_spec(), plain).table.to_csv());

  report rep;
  report_runner(rep, rec, start, end, options.threads, chunks.size(),
                calibrate_chunks(scenarios, chunks, registry));
  EXPECT_EQ(rep.value_of("runner.chunks"), static_cast<double>(chunks.size()));
  report_core(rep, rec.spans());
  EXPECT_EQ(rep.value_of("core.solves"),
            static_cast<double>(scenarios.size()));
  EXPECT_EQ(seen.trace_keys().size(), scenarios.size());
  EXPECT_GT(rep.value_of("core.batch_lanes_mean"), 1.0);
  EXPECT_GT(rep.value_of("runner.calibrate_s"), 0.0);

  const engine::cache_stats stats = cache.stats();
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("dlbench_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  report_cache(rep, cache, seen, dir);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(rep.value_of("cache.lookups"),
            static_cast<double>(stats.hits + stats.misses));
  EXPECT_EQ(rep.value_of("cache.inserts"),
            static_cast<double>(seen.trace_keys().size() +
                                seen.value_keys().size()));
  EXPECT_EQ(rep.failed(), 0u);
}

TEST(Counters, ShardRowsSumToMergedRows) {
  const engine::scenario_context context = demo_context();
  engine::runner_options options;
  options.threads = 1;
  options.calibration.coarse_steps = 2;
  options.calibration.refine_iterations = 20;
  const engine::sweep_result whole = engine::run_sweep(context, demo_spec(), options);
  std::vector<engine::result_table> shards;
  std::size_t rows = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    options.shard = engine::parse_shard_spec(std::to_string(i) + "/3");
    shards.push_back(engine::run_sweep(context, demo_spec(), options).table);
    rows += shards.back().size();
  }
  const engine::result_table merged = engine::merge_tables(shards);
  EXPECT_EQ(rows, merged.size());
  EXPECT_EQ(merged.to_csv(), whole.table.to_csv());
}

}  // namespace
