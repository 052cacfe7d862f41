// Cold-vs-warm solve-cache timing on an engine calibration sweep.
//
// The cache is keyed on canonical scenario identity (see
// engine/solve_cache.h): a cold sweep pays every PDE solve — dominated by
// the calibration lattice + Nelder–Mead probes — while a warm repeat of
// the identical sweep must serve everything from the cache: each trace
// from its entry, each fit from its one small record (the probes are not
// cached).  The spread
// between the two is the headline number of the caching PR.  The spatial
// pair repeats the measurement on the r(x, t) axis (a concrete separable
// field + the "calibrate-spatial" per-hop-multiplier fit).  The
// warm-from-disk bench extends the pair across a process boundary: load
// the saved cache file into a fresh cache, re-run, zero solves — with
// the file size (cache_file_bytes) and the bare save/load costs
// reported alongside.  The journal bench prices the WAL tax of the
// crash-safety PR: journal_ns_per_entry and wal_bytes per appended
// trace record.  The cold sweep also reports the cache's heap bytes per
// entry (heap_bytes_per_entry).

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include <unistd.h>

#include "alloc_counter.h"
#include "core/dl_model.h"
#include "engine/cache_io.h"
#include "engine/cache_journal.h"
#include "engine/scenario_runner.h"
#include "engine/solve_cache.h"

namespace {

using namespace dlm;

/// Attaches the heap-allocation count of the timed loop as an
/// allocs-per-sweep counter (see bench/alloc_counter.h); the workflow's
/// --benchmark_out JSON picks it up as a column.
class alloc_scope {
 public:
  explicit alloc_scope(benchmark::State& state)
      : state_(state), before_(bench::allocations_now()) {}
  ~alloc_scope() {
    state_.counters["allocs_per_sweep"] = benchmark::Counter(
        static_cast<double>(bench::allocations_now() - before_),
        benchmark::Counter::kAvgIterations);
  }

 private:
  benchmark::State& state_;
  std::uint64_t before_;
};

engine::scenario_context make_context() {
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  truth.d = 0.06;
  truth.k = 22.0;
  const std::vector<double> initial{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};
  const core::dl_model model(truth, initial, 1.0, 6.0);
  std::vector<std::vector<double>> surface(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    surface[i].push_back(initial[i]);
    for (int t = 2; t <= 6; ++t)
      surface[i].push_back(model.predict(static_cast<int>(i) + 1, t));
  }
  return engine::scenario_context::from_surface(
      "bench", social::distance_metric::friendship_hops, std::move(surface),
      core::dl_parameters::paper_hops(6.0));
}

engine::sweep_spec make_spec() {
  engine::sweep_spec spec;
  spec.models = {"dl"};
  spec.grid = {10, 20};
  spec.rates = {"preset", "constant:0.5", "calibrate-fixed:3"};
  spec.t_end = 6.0;
  return spec;
}

void BM_calibration_sweep_cold(benchmark::State& state) {
  // heap_bytes_per_entry: the live heap the filled cache holds once the
  // sweep's own buffers are freed, over its entry count — the cache's
  // memory per entry, keys, map nodes, buckets and payloads together.
  const engine::scenario_context ctx = make_context();
  const engine::sweep_spec spec = make_spec();
  double bytes_per_entry = 0.0;
  const alloc_scope allocs(state);
  for (auto _ : state) {
    const std::int64_t before = bench::live_heap_bytes();
    engine::solve_cache cache;  // fresh: every solve runs
    engine::runner_options options;
    options.cache = &cache;
    benchmark::DoNotOptimize(engine::run_sweep(ctx, spec, options));
    bytes_per_entry =
        static_cast<double>(bench::live_heap_bytes() - before) /
        static_cast<double>(cache.size());
  }
  state.counters["heap_bytes_per_entry"] = benchmark::Counter(bytes_per_entry);
}
BENCHMARK(BM_calibration_sweep_cold)->Unit(benchmark::kMillisecond);

void BM_calibration_sweep_warm(benchmark::State& state) {
  const engine::scenario_context ctx = make_context();
  const engine::sweep_spec spec = make_spec();
  engine::solve_cache cache;
  engine::runner_options options;
  options.cache = &cache;
  (void)engine::run_sweep(ctx, spec, options);  // warm it up once
  const alloc_scope allocs(state);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine::run_sweep(ctx, spec, options));
}
BENCHMARK(BM_calibration_sweep_warm)->Unit(benchmark::kMillisecond);

engine::sweep_spec make_spatial_spec() {
  // The §V spatial-rate axis: a concrete separable field plus the
  // per-hop-multiplier fit family ("calibrate-spatial" fits carry 6 extra
  // optimizer dimensions, so theirs is the longest fit record).
  engine::sweep_spec spec;
  spec.models = {"dl"};
  spec.rates = {"spatial:preset|1.3,1,0.75,0.6,0.5,0.45",
                "calibrate-spatial:3"};
  spec.t_end = 6.0;
  return spec;
}

void BM_spatial_sweep_cold(benchmark::State& state) {
  const engine::scenario_context ctx = make_context();
  const engine::sweep_spec spec = make_spatial_spec();
  const alloc_scope allocs(state);
  for (auto _ : state) {
    engine::solve_cache cache;  // fresh: every solve runs
    engine::runner_options options;
    options.cache = &cache;
    benchmark::DoNotOptimize(engine::run_sweep(ctx, spec, options));
  }
}
BENCHMARK(BM_spatial_sweep_cold)->Unit(benchmark::kMillisecond);

void BM_spatial_sweep_warm(benchmark::State& state) {
  const engine::scenario_context ctx = make_context();
  const engine::sweep_spec spec = make_spatial_spec();
  engine::solve_cache cache;
  engine::runner_options options;
  options.cache = &cache;
  (void)engine::run_sweep(ctx, spec, options);  // warm it up once
  const alloc_scope allocs(state);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine::run_sweep(ctx, spec, options));
}
BENCHMARK(BM_spatial_sweep_warm)->Unit(benchmark::kMillisecond);

void BM_calibration_sweep_warm_from_disk(benchmark::State& state) {
  // The persistence PR's headline: the same warm sweep, but the warmth
  // crossed a process boundary.  Each iteration loads the saved cache
  // file into a fresh cache — exactly what a second process pays — and
  // re-runs the sweep, which must be pure lookups.  The file size rides
  // along as a counter, so BENCH_solve_cache.json tracks format bloat.
  const engine::scenario_context ctx = make_context();
  const engine::sweep_spec spec = make_spec();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("dlm_perf_cache_" + std::to_string(::getpid()) + ".bin");
  {
    engine::solve_cache cache;
    engine::runner_options options;
    options.cache = &cache;
    (void)engine::run_sweep(ctx, spec, options);  // one cold run, saved
    engine::save_cache(cache, path);
  }
  state.counters["cache_file_bytes"] = benchmark::Counter(
      static_cast<double>(std::filesystem::file_size(path)));
  const alloc_scope allocs(state);
  for (auto _ : state) {
    engine::solve_cache cache;  // fresh, as in a new process
    if (!engine::load_cache(cache, path).loaded)
      state.SkipWithError("cache file failed to load");
    engine::runner_options options;
    options.cache = &cache;
    benchmark::DoNotOptimize(engine::run_sweep(ctx, spec, options));
    if (cache.stats().misses != 0)
      state.SkipWithError("warm-from-disk sweep performed a solve");
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_calibration_sweep_warm_from_disk)->Unit(benchmark::kMillisecond);

void BM_cache_save(benchmark::State& state) {
  // Serialization cost alone (the shutdown flush of dl_serve).
  const engine::scenario_context ctx = make_context();
  engine::solve_cache cache;
  engine::runner_options options;
  options.cache = &cache;
  (void)engine::run_sweep(ctx, make_spec(), options);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("dlm_perf_cache_save_" + std::to_string(::getpid()) + ".bin");
  const alloc_scope allocs(state);
  for (auto _ : state) engine::save_cache(cache, path);
  state.counters["cache_file_bytes"] = benchmark::Counter(
      static_cast<double>(std::filesystem::file_size(path)));
  std::filesystem::remove(path);
}
BENCHMARK(BM_cache_save)->Unit(benchmark::kMillisecond);

void BM_cache_load(benchmark::State& state) {
  // Deserialization + checksum cost alone (the startup load).
  const engine::scenario_context ctx = make_context();
  std::string bytes;
  {
    engine::solve_cache cache;
    engine::runner_options options;
    options.cache = &cache;
    (void)engine::run_sweep(ctx, make_spec(), options);
    bytes = engine::serialize_cache(cache);
  }
  const alloc_scope allocs(state);
  for (auto _ : state) {
    engine::solve_cache cache;
    if (!engine::deserialize_cache(cache, bytes).loaded)
      state.SkipWithError("cache bytes failed to load");
    benchmark::DoNotOptimize(cache);
  }
}
BENCHMARK(BM_cache_load)->Unit(benchmark::kMillisecond);

void BM_journal_append(benchmark::State& state) {
  // The WAL tax: per-insert cost of journaling a realistic trace record
  // (engine/cache_journal.h), reported as journal_ns_per_entry so the
  // sweep-throughput budget can be checked against it, plus wal_bytes —
  // the on-disk growth per entry — so compaction cadence stays honest.
  engine::model_trace trace;
  trace.distances = {1, 2, 3, 4, 5, 6};
  trace.times = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  trace.predicted.assign(trace.distances.size(),
                         std::vector<double>(trace.times.size(), 0.25));
  trace.effective_dt = 0.01;
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("dlm_perf_journal_" + std::to_string(::getpid()) + ".wal");
  std::filesystem::remove(path);
  std::size_t appended = 0;
  std::uint64_t wal_bytes = 0;
  const alloc_scope allocs(state);
  {
    engine::cache_journal journal(path);
    for (auto _ : state) {
      journal.append_trace("bench/journal/" + std::to_string(appended++),
                           trace);
      if (!journal.write_error().empty())
        state.SkipWithError("journal append failed");
    }
    wal_bytes = journal.bytes();
  }
  // kIsIterationInvariantRate computes value * iterations / elapsed;
  // inverted with value 1e-9 that is elapsed_ns / iterations.
  state.counters["journal_ns_per_entry"] = benchmark::Counter(
      1e-9, benchmark::Counter::kIsIterationInvariantRate |
                benchmark::Counter::kInvert);
  state.counters["wal_bytes"] =
      benchmark::Counter(static_cast<double>(wal_bytes));
  std::filesystem::remove(path);
}
BENCHMARK(BM_journal_append);

void BM_calibration_sweep_uncached(benchmark::State& state) {
  // Baseline without any cache, for the no-regression comparison on the
  // plain path.
  const engine::scenario_context ctx = make_context();
  const engine::sweep_spec spec = make_spec();
  const alloc_scope allocs(state);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine::run_sweep(ctx, spec, {}));
}
BENCHMARK(BM_calibration_sweep_uncached)->Unit(benchmark::kMillisecond);

}  // namespace
