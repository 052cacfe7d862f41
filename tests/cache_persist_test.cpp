// Cross-process warm-sweep round-trip through the on-disk cache.
//
// The promise of cache_io is not "a warm repeat is fast" (the in-memory
// cache already gives that) but "a *second process* starts warm": a
// writer process runs the full sweep cold — plain, spatial-rate,
// calibrate-fixed and calibrate-spatial rows — and saves the cache; a
// fresh reader process loads the file and must re-run the identical
// sweep with zero PDE solves, producing byte-identical CSV and
// bitwise-identical traces.  The writer really is a separate process:
// the reader test forks and execs this very test binary with a
// --gtest_filter selecting the env-gated writer test (which GTEST_SKIPs
// in a normal run).

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dl_model.h"
#include "digg/simulator.h"
#include "engine/cache_io.h"
#include "engine/scenario_runner.h"
#include "graph/generators.h"

namespace {

using namespace dlm;

// Paths handed from the reader (parent) to the writer (child) process.
constexpr const char* kCacheEnv = "DLM_PERSIST_TEST_CACHE";
constexpr const char* kCsvEnv = "DLM_PERSIST_TEST_CSV";
constexpr const char* kTraceEnv = "DLM_PERSIST_TEST_TRACES";

/// The self-consistent synthetic DL surface the perf benches use: the
/// calibrate rows recover the generating parameters, so the sweep
/// exercises the full value-cache (SSE probe) path too.
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
      "persist", social::distance_metric::friendship_hops, std::move(surface),
      core::dl_parameters::paper_hops(6.0));
}

/// One of every rate-spec family, so the round-trip covers plain solves,
/// spatial r(x, t) rows and both calibrate families (whose fit_* CSV
/// columns and SSE value-cache entries are the easiest thing for a
/// persistence bug to silently change).
engine::sweep_spec make_spec() {
  engine::sweep_spec spec;
  spec.models = {"dl"};
  spec.grid = {10};
  spec.rates = {"preset", "spatial:preset|1.3,1,0.75,0.6,0.5,0.45",
                "calibrate-fixed:3", "calibrate-spatial:3"};
  spec.t_end = 6.0;
  return spec;
}

/// Bitwise dump of every kept trace: each double as its raw IEEE-754
/// bits, so comparing dumps compares mantissas, not decimal renderings.
std::string dump_traces(const std::vector<engine::model_trace>& traces) {
  std::string out;
  const auto put_bits = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  const auto put_f64 = [&](double v) {
    put_bits(std::bit_cast<std::uint64_t>(v));
  };
  put_bits(traces.size());
  for (const engine::model_trace& trace : traces) {
    put_bits(trace.distances.size());
    for (int x : trace.distances) put_bits(static_cast<std::uint64_t>(x));
    put_bits(trace.times.size());
    for (double t : trace.times) put_f64(t);
    put_f64(trace.effective_dt);
    for (const std::vector<double>& row : trace.predicted)
      for (double v : row) put_f64(v);
  }
  return out;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Slice fingerprints are folded into every cache key, so the on-disk
/// cache is only shareable if rebuilding the same dataset — in this
/// process or another — hashes to the same fingerprint.  Graph-backed
/// (cascade) contexts are the regression surface: hashing the graph
/// handles by *address* instead of by structural invariants would make
/// every rebuild (and every process) its own cache universe.
TEST(CachePersist, CascadeContextFingerprintIsRebuildStable) {
  const auto build = [] {
    num::rng rand(42);
    graph::digg_graph_params gp;
    gp.users = 300;
    graph::digraph followers = graph::digg_follower_graph(gp, rand);
    graph::node_id initiator = 0;
    for (graph::node_id v = 0; v < followers.node_count(); ++v)
      if (followers.in_degree(v) > followers.in_degree(initiator))
        initiator = v;
    digg::cascade_params cp;
    cp.horizon_hours = 6;
    const std::vector<social::vote> votes =
        digg::simulate_cascade(followers, initiator, 0, 0, cp, rand);
    return engine::scenario_context::from_cascade(
        std::move(followers), initiator, votes, cp.horizon_hours);
  };
  const engine::scenario_context a = build();
  const engine::scenario_context b = build();
  ASSERT_EQ(a.slice_count(), b.slice_count());
  ASSERT_GT(a.slice_count(), 0u);
  for (std::size_t i = 0; i < a.slice_count(); ++i)
    EXPECT_EQ(a.slice(i).fingerprint, b.slice(i).fingerprint)
        << a.slice(i).name;
}

/// Writer half — runs only when the reader test spawned this binary
/// with the env vars set; a normal ctest invocation skips it.
TEST(CachePersist, WriterMode) {
  const char* cache_path = std::getenv(kCacheEnv);
  const char* csv_path = std::getenv(kCsvEnv);
  const char* trace_path = std::getenv(kTraceEnv);
  if (cache_path == nullptr || csv_path == nullptr || trace_path == nullptr)
    GTEST_SKIP() << "writer half of the cross-process round-trip; "
                    "spawned by CrossProcessWarmSweep";

  const engine::scenario_context context = make_context();
  engine::solve_cache cache;
  engine::runner_options options;
  options.cache = &cache;
  options.keep_traces = true;
  const engine::sweep_result cold =
      engine::run_sweep(context, make_spec(), options);
  ASSERT_FALSE(cold.table.empty());
  ASSERT_GT(cache.stats().misses, 0u) << "cold run must really solve";

  engine::save_cache(cache, cache_path);
  spit(csv_path, cold.table.to_csv());
  spit(trace_path, dump_traces(cold.traces));
}

/// Reader half: spawn the writer as a genuinely separate process, load
/// what it saved, and require a zero-solve byte-identical warm sweep.
TEST(CachePersist, CrossProcessWarmSweepIsByteIdenticalWithZeroSolves) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string tag = "dlm_persist_" + std::to_string(::getpid());
  const std::filesystem::path cache_path = dir / (tag + ".cache");
  const std::filesystem::path csv_path = dir / (tag + ".csv");
  const std::filesystem::path trace_path = dir / (tag + ".traces");

  const pid_t child = fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    // Child: become the writer.  _exit on any failure so a half-set-up
    // child can never fall through into the parent's assertions.
    if (setenv(kCacheEnv, cache_path.c_str(), 1) != 0 ||
        setenv(kCsvEnv, csv_path.c_str(), 1) != 0 ||
        setenv(kTraceEnv, trace_path.c_str(), 1) != 0)
      _exit(112);
    const char* argv[] = {"cache_persist_test",
                          "--gtest_filter=CachePersist.WriterMode", nullptr};
    execv("/proc/self/exe", const_cast<char* const*>(argv));
    _exit(113);  // execv only returns on failure
  }

  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "writer process did not exit cleanly";
  ASSERT_EQ(WEXITSTATUS(status), 0) << "writer process failed";

  // Load the writer's cache into a fresh process-local cache.
  engine::solve_cache cache;
  const engine::cache_load_result load =
      engine::load_cache(cache, cache_path);
  ASSERT_TRUE(load.loaded) << load.error;
  EXPECT_GT(load.traces, 0u);
  EXPECT_GT(load.values, 0u) << "calibrate fit records should persist";
  const std::size_t loaded_entries = cache.size();

  // The warm sweep: identical spec, fresh context object.
  engine::runner_options options;
  options.cache = &cache;
  options.keep_traces = true;
  const engine::sweep_result warm =
      engine::run_sweep(make_context(), make_spec(), options);

  const engine::cache_stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 0u)
      << "a warm-from-disk sweep must perform zero PDE solves";
  EXPECT_GT(stats.hits, 0u);
  // Every fit was read back from its record: nothing new was stored.
  EXPECT_EQ(cache.size(), loaded_entries);

  // Byte-identity across processes: the CSV the writer rendered and the
  // raw mantissas of every trace.
  EXPECT_EQ(warm.table.to_csv(), slurp(csv_path));
  EXPECT_EQ(dump_traces(warm.traces), slurp(trace_path));

  std::filesystem::remove(cache_path);
  std::filesystem::remove(csv_path);
  std::filesystem::remove(trace_path);
}

}  // namespace
