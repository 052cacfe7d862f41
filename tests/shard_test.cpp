// The shard axis contract: N processes, one byte-identical result.
//
// The engine promises that partitioning a sweep with shard_chunks,
// running each shard independently (each with its own solve cache) and
// recombining through merge_tables / merge_cache_files reproduces the
// unsharded run *exactly* — CSV bytes, text-table bytes and the
// serialized cache file — for any shard count and any merge order.
// These tests pin that contract in-process (run_sweep with
// runner_options::shard), over the wire (run_sweep over
// engine::remote_registry against a resident dl_service, alone and
// mixed with local shards), through the real dl_shard driver and at the
// seams: spec parsing rejections, overlap/gap detection in the merge,
// empty shards, bitwise conflict counting and the loud-failure path for
// an unwritable cache file.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dl_model.h"
#include "engine/cache_io.h"
#include "engine/format.h"
#include "engine/result_table.h"
#include "engine/scenario_runner.h"
#include "engine/service.h"
#include "engine/shard.h"
#include "engine/solve_cache.h"

namespace {

using namespace dlm;
using engine::shard_spec;

/// The self-consistent synthetic DL surface the persistence tests use:
/// calibrate rows recover the generating parameters.
engine::scenario_context make_context(const std::string& name = "shard") {
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
      name, social::distance_metric::friendship_hops, std::move(surface),
      core::dl_parameters::paper_hops(6.0));
}

/// Every axis the shard CSV has to carry faithfully: both schemes, all
/// rate-spec families (plain, constant, spatial, calibrate) and all
/// three domain families — non-line domains expand only under
/// strang_cn, so chunk sizes are deliberately uneven across the sweep.
engine::sweep_spec make_spec() {
  engine::sweep_spec spec;
  spec.models = {"dl"};
  spec.schemes = {core::dl_scheme::strang_cn, core::dl_scheme::ftcs};
  spec.grid = {12};
  spec.rates = {"preset", "constant:0.5",
                "spatial:preset|1.3,1,0.75,0.6,0.5,0.45",
                "calibrate-fixed:3"};
  spec.domains = {"line", "grid2d:1,3", "comm:2|mix=0.05"};
  return spec;
}

std::filesystem::path temp_path(const std::string& leaf) {
  return std::filesystem::temp_directory_path() /
         ("dlm_shard_test_" + std::to_string(::getpid()) + "_" + leaf);
}

/// wall_ms is the one nondeterministic column; to_text() renders it, so
/// byte-comparing text tables goes through the CSV round-trip (the CSV
/// omits timings, zeroing them on both sides).
std::string stable_text(const engine::result_table& table) {
  return engine::result_table::from_csv(table.to_csv()).to_text();
}

// ------------------------------------------------------------- parsing

TEST(ShardSpec, ParsesTheAcceptedForm) {
  EXPECT_EQ(engine::parse_shard_spec("0/1"), (shard_spec{0, 1}));
  EXPECT_EQ(engine::parse_shard_spec("2/5"), (shard_spec{2, 5}));
  EXPECT_TRUE(engine::parse_shard_spec("0/1").is_all());
  EXPECT_FALSE(engine::parse_shard_spec("0/2").is_all());
}

TEST(ShardSpec, LabelRoundTripsThroughTheParser) {
  for (const char* spec : {"0/1", "1/4", "3/8", "2/3"}) {
    const shard_spec parsed = engine::parse_shard_spec(spec);
    EXPECT_EQ(parsed.label(), spec);
    EXPECT_EQ(engine::parse_shard_spec(parsed.label()), parsed) << spec;
  }
}

/// Rejections carry the 1-based position, the spec verbatim and the
/// grammar — the same contract every other spec parser in the repo
/// honors.
TEST(ShardSpec, RejectionsNameThePositionSpecAndGrammar) {
  const struct {
    const char* spec;
    const char* reason;
    const char* position;
  } cases[] = {
      {"", "empty shard spec", "at position 1"},
      {"3", "missing '/'", "at position 1"},
      {"x/2", "", "at position 1"},
      {"1/y", "", "at position 3"},
      {"1/0", "shard count must be positive", "at position 3"},
      {"2/2", "out of range", "at position 1"},
      // No policy suffix is accepted: there is one plan.
      {"0/2:contiguous", "bad shard count '2:contiguous'", "at position 3"},
      {"0/2:strided", "bad shard count '2:strided'", "at position 3"},
      {"0/2:balanced", "bad shard count '2:balanced'", "at position 3"},
  };
  for (const auto& c : cases) {
    try {
      (void)engine::parse_shard_spec(c.spec);
      FAIL() << "'" << c.spec << "' was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.position), std::string::npos) << what;
      EXPECT_NE(what.find("'" + std::string(c.spec) + "'"), std::string::npos)
          << what;
      EXPECT_NE(what.find("accepted shard spec form:"), std::string::npos)
          << what;
      if (*c.reason != '\0') {
        EXPECT_NE(what.find(c.reason), std::string::npos) << what;
      }
    }
  }
}

TEST(ShardSpec, ValidateRejectsZeroCountAndOutOfRangeIndex) {
  EXPECT_THROW((shard_spec{0, 0}).validate(), std::invalid_argument);
  EXPECT_THROW((shard_spec{3, 3}).validate(), std::invalid_argument);
  EXPECT_NO_THROW((shard_spec{2, 3}).validate());
}

// ----------------------------------------------------------- the plan

/// The chunk indices (positions in `chunks`) that `mine` selected.
std::vector<std::size_t> chunk_positions(
    const std::vector<std::vector<std::size_t>>& chunks,
    const std::vector<std::vector<std::size_t>>& mine) {
  std::vector<std::size_t> positions;
  for (const std::vector<std::size_t>& chunk : mine) {
    const auto it = std::find(chunks.begin(), chunks.end(), chunk);
    EXPECT_NE(it, chunks.end()) << "a shard owns a chunk that was re-split";
    positions.push_back(static_cast<std::size_t>(it - chunks.begin()));
  }
  return positions;
}

std::uint64_t chunk_cost(const std::vector<std::size_t>& chunk,
                         const std::vector<engine::scenario>& scenarios) {
  std::uint64_t cost = 0;
  for (const std::size_t i : chunk) cost += engine::scenario_cost(scenarios[i]);
  return cost;
}

/// The plan must partition the chunk list: every chunk assigned to
/// exactly one shard, whole, in ascending chunk order within its shard,
/// and the same assignment on every call (each worker process computes
/// it independently).
TEST(ShardChunks, PartitionsTheChunkList) {
  const engine::scenario_context ctx = make_context();
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(make_spec(), ctx);
  const std::vector<std::vector<std::size_t>> chunks =
      engine::batch_sweep(scenarios);
  ASSERT_GT(chunks.size(), 1u);

  for (const std::size_t n : {2u, 3u, 4u, 8u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<std::size_t> covered;
    for (std::size_t i = 0; i < n; ++i) {
      const shard_spec shard{i, n};
      const std::vector<std::vector<std::size_t>> mine =
          engine::shard_chunks(chunks, scenarios, shard);
      EXPECT_EQ(engine::shard_chunks(chunks, scenarios, shard), mine);
      const std::vector<std::size_t> positions = chunk_positions(chunks, mine);
      EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
      for (const std::vector<std::size_t>& chunk : mine)
        covered.insert(covered.end(), chunk.begin(), chunk.end());
    }
    std::sort(covered.begin(), covered.end());
    std::vector<std::size_t> expected(scenarios.size());
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(covered, expected);
  }
}

TEST(ShardChunks, ShardZeroOfOneIsTheIdentity) {
  const engine::scenario_context ctx = make_context();
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(make_spec(), ctx);
  const std::vector<std::vector<std::size_t>> chunks =
      engine::batch_sweep(scenarios);
  EXPECT_EQ(engine::shard_chunks(chunks, scenarios, shard_spec{0, 1}),
            chunks);
}

/// The LPT guarantee: no shard carries more than its fair share plus one
/// chunk, and with at least N chunks no shard is left empty (CI's
/// `--fault crash:worker1@chunk0` drill depends on worker 1 owning a
/// chunk).
TEST(ShardChunks, MeetsTheLptBoundAndFillsEveryShard) {
  const engine::scenario_context ctx = make_context();
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(make_spec(), ctx);
  const std::vector<std::vector<std::size_t>> chunks =
      engine::batch_sweep(scenarios);
  std::uint64_t total = 0;
  std::uint64_t max_chunk = 0;
  for (const std::vector<std::size_t>& chunk : chunks) {
    total += chunk_cost(chunk, scenarios);
    max_chunk = std::max(max_chunk, chunk_cost(chunk, scenarios));
  }
  for (const std::size_t n : {2u, 3u, 4u, 8u}) {
    ASSERT_GE(chunks.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<std::vector<std::size_t>> mine =
          engine::shard_chunks(chunks, scenarios, shard_spec{i, n});
      EXPECT_FALSE(mine.empty()) << "shard " << i << " of " << n;
      std::uint64_t load = 0;
      for (const std::vector<std::size_t>& chunk : mine)
        load += chunk_cost(chunk, scenarios);
      EXPECT_LE(static_cast<double>(load),
                static_cast<double>(total) / static_cast<double>(n) +
                    static_cast<double>(max_chunk))
          << "shard " << i << " of " << n;
    }
  }
}

/// dl_shard's bench sweep — grids 80/160/320 × 512 constant rates in
/// chunks of 8 lanes — is what a count-based split skews: the plan keeps
/// every shard within 5% of the mean cost.
TEST(ShardChunks, EvensOutTheBenchSweep) {
  const engine::scenario_context ctx = make_context("bench");
  engine::sweep_spec spec;
  spec.models = {"dl"};
  spec.grid = {80, 160, 320};
  for (std::size_t k = 0; k < 512; ++k)
    spec.rates.push_back("constant:" +
                         engine::format_full_precision(
                             0.05 + 0.0025 * static_cast<double>(k)));
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(spec, ctx);
  const std::vector<std::vector<std::size_t>> chunks =
      engine::batch_sweep(scenarios, engine::default_registry(), 8);
  for (const std::size_t n : {2u, 4u, 8u}) {
    std::vector<std::uint64_t> loads;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t load = 0;
      for (const std::vector<std::size_t>& chunk :
           engine::shard_chunks(chunks, scenarios, shard_spec{i, n}))
        load += chunk_cost(chunk, scenarios);
      loads.push_back(load);
    }
    const double mean =
        static_cast<double>(std::accumulate(loads.begin(), loads.end(),
                                            std::uint64_t{0})) /
        static_cast<double>(n);
    const double worst =
        static_cast<double>(*std::max_element(loads.begin(), loads.end()));
    EXPECT_LE(worst / mean, 1.05) << "n=" << n;
  }
}

/// The estimator ranks work the way the solver spends it: finer grids,
/// more domain blocks, more steps and calibration all cost more; every
/// calibrate form costs the same flat 300 solves, and a model without a
/// grid costs the floor of 1.
TEST(ScenarioCost, GrowsWithGridDomainAndCalibration) {
  engine::scenario base;
  base.points_per_unit = 80;
  engine::scenario fine = base;
  fine.points_per_unit = 320;
  EXPECT_GT(engine::scenario_cost(fine), engine::scenario_cost(base));

  engine::scenario sheet = base;
  sheet.domain = "grid2d:1,4";
  EXPECT_GT(engine::scenario_cost(sheet), engine::scenario_cost(base));
  engine::scenario communities = base;
  communities.domain = "comm:3|mix=0.05";
  EXPECT_GT(engine::scenario_cost(communities), engine::scenario_cost(base));

  for (const char* rate : {"calibrate", "calibrate-spatial",
                           "calibrate-fixed:3"}) {
    engine::scenario calibrated = base;
    calibrated.rate = rate;
    EXPECT_EQ(engine::scenario_cost(calibrated),
              300 * engine::scenario_cost(base))
        << rate;
  }

  engine::scenario longer = base;
  longer.t_end = 12.0;
  EXPECT_GT(engine::scenario_cost(longer), engine::scenario_cost(base));

  engine::scenario gridless = base;
  gridless.points_per_unit = 0;
  EXPECT_EQ(engine::scenario_cost(gridless), 1u);
  engine::scenario no_dt = base;
  no_dt.dt = 0.0;
  EXPECT_EQ(engine::scenario_cost(no_dt), 80u);  // one step
}

// ----------------------------------------------- byte-identical merge

struct shard_outputs {
  std::vector<engine::result_table> tables;
  std::vector<std::string> cache_bytes;  ///< serialize_cache per shard
};

/// Runs every shard of an N-way partition independently, each with its
/// own fresh solve cache — exactly what N worker processes do.
shard_outputs run_shards(const engine::scenario_context& ctx,
                         const std::vector<engine::scenario>& scenarios,
                         std::size_t n) {
  shard_outputs out;
  for (std::size_t i = 0; i < n; ++i) {
    engine::solve_cache cache;
    engine::runner_options options;
    options.threads = 1;
    options.shard = shard_spec{i, n};
    options.cache = &cache;
    out.tables.push_back(engine::run_sweep(ctx, scenarios, options).table);
    out.cache_bytes.push_back(engine::serialize_cache(cache));
  }
  return out;
}

TEST(ShardedSweep, MergedShardsReproduceTheUnshardedBytes) {
  const engine::scenario_context ctx = make_context();
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(make_spec(), ctx);

  engine::solve_cache full_cache;
  engine::runner_options options;
  options.threads = 1;
  options.cache = &full_cache;
  const engine::result_table full =
      engine::run_sweep(ctx, scenarios, options).table;
  const std::string full_csv = full.to_csv();
  const std::string full_text = stable_text(full);
  const std::string full_cache_bytes = engine::serialize_cache(full_cache);

  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  for (const std::size_t n : {2u, 3u, 4u, 8u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const shard_outputs shards = run_shards(ctx, scenarios, n);

    // Tables merge to the unsharded CSV *and* text bytes — in
    // reversed pass order, because merge order must not matter.
    std::vector<engine::result_table> reversed(shards.tables.rbegin(),
                                               shards.tables.rend());
    const engine::result_table merged = engine::merge_tables(reversed);
    EXPECT_EQ(merged.to_csv(), full_csv);
    EXPECT_EQ(stable_text(merged), full_text);

    // Shard cache files merge to the unsharded cache file bytes.
    std::vector<std::filesystem::path> files;
    for (std::size_t i = 0; i < n; ++i) {
      const std::filesystem::path path = temp_path(
          "merge_" + std::to_string(n) + "_" + std::to_string(i) + ".cache");
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << shards.cache_bytes[i];
      ASSERT_TRUE(out.good());
      files.push_back(path);
    }
    engine::solve_cache merged_cache;
    const engine::cache_merge_result report =
        engine::merge_cache_files(merged_cache, files);
    EXPECT_EQ(report.conflicts, 0u);
    EXPECT_EQ(engine::serialize_cache(merged_cache), full_cache_bytes);

    // And the merged cache is *usable*: loaded back, the whole sweep
    // replays warm — zero new misses, identical CSV.
    const engine::cache_stats before = merged_cache.stats();
    engine::runner_options warm;
    warm.threads = 1;
    warm.cache = &merged_cache;
    const engine::result_table replay =
        engine::run_sweep(ctx, scenarios, warm).table;
    EXPECT_EQ(replay.to_csv(), full_csv);
    EXPECT_EQ(merged_cache.stats().misses, before.misses);

    for (const std::filesystem::path& path : files)
      std::filesystem::remove(path);
  }
}

TEST(ShardedSweep, MoreShardsThanChunksLeavesTrailingShardsEmpty) {
  const engine::scenario_context ctx = make_context();
  engine::sweep_spec tiny = make_spec();
  tiny.schemes = {core::dl_scheme::strang_cn};
  tiny.rates = {"preset"};  // 3 scenarios: one per domain
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(tiny, ctx);
  ASSERT_EQ(scenarios.size(), 3u);

  engine::runner_options options;
  options.threads = 1;
  const std::string full_csv =
      engine::run_sweep(ctx, scenarios, options).table.to_csv();

  const shard_outputs shards =
      run_shards(ctx, scenarios, 8);
  std::size_t empty = 0;
  for (const engine::result_table& table : shards.tables)
    if (table.size() == 0) ++empty;
  EXPECT_GE(empty, 5u);  // at most 3 chunks to hand out
  EXPECT_EQ(engine::merge_tables(shards.tables).to_csv(), full_csv);
}

TEST(ShardedSweep, RunSweepRejectsAnInvalidShard) {
  const engine::scenario_context ctx = make_context();
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(make_spec(), ctx);
  engine::runner_options options;
  options.shard = shard_spec{2, 2};
  EXPECT_THROW((void)engine::run_sweep(ctx, scenarios, options),
               std::invalid_argument);
}

// ---------------------------------------------------- merge validation

TEST(MergeTables, RejectsOverlapNamesTheDuplicateIndex) {
  const engine::scenario_context ctx = make_context();
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(make_spec(), ctx);
  const shard_outputs shards =
      run_shards(ctx, scenarios, 2);

  const std::vector<engine::result_table> overlapping = {
      shards.tables[0], shards.tables[0], shards.tables[1]};
  try {
    (void)engine::merge_tables(overlapping);
    FAIL() << "overlapping shards were merged";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("more than one shard"),
              std::string::npos)
        << e.what();
  }
}

TEST(MergeTables, RejectsAGapNamesTheMissingIndex) {
  const engine::scenario_context ctx = make_context();
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(make_spec(), ctx);
  const shard_outputs shards =
      run_shards(ctx, scenarios, 2);
  ASSERT_GT(shards.tables[0].size(), 0u);
  ASSERT_GT(shards.tables[1].size(), 0u);

  // The shard that does not own scenario 0 starts at a nonzero global
  // index: alone, index 0 is missing.
  const std::size_t without_zero = shards.tables[0].row(0).index == 0 ? 1 : 0;
  const std::vector<engine::result_table> gap = {shards.tables[without_zero]};
  try {
    (void)engine::merge_tables(gap);
    FAIL() << "a gapped merge was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("index 0 is missing"), std::string::npos) << what;
  }
}

TEST(MergeTables, EmptyInputsMergeToAnEmptyTable) {
  const std::vector<engine::result_table> none;
  EXPECT_EQ(engine::merge_tables(none).size(), 0u);
  const std::vector<engine::result_table> empties(3);
  EXPECT_EQ(engine::merge_tables(empties).size(), 0u);
}

// ------------------------------------------------------- cache merging

TEST(CacheMerge, CountersDistinguishInsertDuplicateAndConflict) {
  engine::solve_cache cache;
  EXPECT_EQ(cache.merge_value("probe:a", 1.0),
            engine::solve_cache::merge_outcome::inserted);
  EXPECT_EQ(cache.merge_value("probe:a", 1.0),
            engine::solve_cache::merge_outcome::duplicate);
  EXPECT_EQ(cache.merge_value("probe:a", 2.0),
            engine::solve_cache::merge_outcome::conflict);

  const engine::cache_stats stats = cache.stats();
  EXPECT_EQ(stats.merged_entries, 1u);
  EXPECT_EQ(stats.merge_conflicts, 1u);
  // First insert wins: the conflicting 2.0 was not adopted.
  EXPECT_EQ(engine::serialize_cache(cache), [] {
    engine::solve_cache expected;
    (void)expected.merge_value("probe:a", 1.0);
    return engine::serialize_cache(expected);
  }());
}

TEST(CacheMerge, FileMergeCountsConflictsAndFirstInputWins) {
  engine::solve_cache first, second;
  (void)first.merge_value("probe:x", 1.0);
  (void)first.merge_value("probe:y", 5.0);
  (void)second.merge_value("probe:x", 3.0);  // conflicts with first
  (void)second.merge_value("probe:z", 7.0);

  const std::filesystem::path a = temp_path("conflict_a.cache");
  const std::filesystem::path b = temp_path("conflict_b.cache");
  engine::save_cache(first, a);
  engine::save_cache(second, b);

  engine::solve_cache merged;
  const std::vector<std::filesystem::path> inputs = {a, b};
  const engine::cache_merge_result report =
      engine::merge_cache_files(merged, inputs);
  EXPECT_EQ(report.merged_values, 3u);
  EXPECT_EQ(report.conflicts, 1u);
  EXPECT_EQ(report.duplicates, 0u);

  engine::solve_cache expected;
  (void)expected.merge_value("probe:x", 1.0);  // first input's bits
  (void)expected.merge_value("probe:y", 5.0);
  (void)expected.merge_value("probe:z", 7.0);
  EXPECT_EQ(engine::serialize_cache(merged),
            engine::serialize_cache(expected));

  std::filesystem::remove(a);
  std::filesystem::remove(b);
}

TEST(CacheMerge, AMissingInputThrowsAndLeavesTheTargetUntouched) {
  engine::solve_cache target;
  (void)target.merge_value("probe:kept", 9.0);
  const std::string before = engine::serialize_cache(target);

  const std::filesystem::path good = temp_path("present.cache");
  engine::save_cache(target, good);
  const std::filesystem::path missing = temp_path("missing.cache");
  std::filesystem::remove(missing);

  const std::vector<std::filesystem::path> inputs = {good, missing};
  try {
    (void)engine::merge_cache_files(target, inputs);
    FAIL() << "a missing input file was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(missing.string()),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(engine::serialize_cache(target), before);
  std::filesystem::remove(good);
}

// --------------------------------------------------- loud cache failure

TEST(PersistentCache, UnwritablePathFailsLoudlyAndUpFront) {
  const std::filesystem::path doomed =
      "/nonexistent_dlm_shard_test_dir/solve.cache";
  EXPECT_FALSE(engine::probe_cache_writable(doomed).empty());

  engine::persistent_cache persist(doomed);
  EXPECT_FALSE(persist.write_error().empty());
  EXPECT_NE(persist.write_error().find(doomed.string()), std::string::npos)
      << persist.write_error();
  EXPECT_THROW(persist.flush(), std::runtime_error);
}

TEST(PersistentCache, WritablePathProbesClean) {
  const std::filesystem::path fine = temp_path("probe_ok.cache");
  EXPECT_EQ(engine::probe_cache_writable(fine), "");
  // The probe must not leave its temp file behind.
  EXPECT_FALSE(std::filesystem::exists(fine.string() + ".tmp"));
}

// -------------------------------------------------------- remote shards

/// Shards executed over the dl_serve wire protocol — run_sweep over
/// remote_registry — must merge to the local unsharded bytes: every
/// double crosses the wire in full %.17g precision, and the remote
/// models answer capability queries locally, so remote and local shards
/// form the same partition.  calibrate-spatial scenarios join the
/// calibrate-fixed / grid2d / comm mix, so both fit families cross the
/// wire — on line and comm only, since one calibrate-spatial fit on
/// grid2d alone takes seconds.
TEST(RemoteShard, WireExecutedShardsMergeToTheLocalBytes) {
  const engine::scenario_context ctx = make_context("svc");
  std::vector<engine::scenario> scenarios =
      engine::expand_sweep(make_spec(), ctx);
  engine::sweep_spec spatial = make_spec();
  spatial.rates = {"calibrate-spatial:3"};
  spatial.domains = {"line", "comm:2|mix=0.05"};
  for (const engine::scenario& sc : engine::expand_sweep(spatial, ctx))
    scenarios.push_back(sc);

  // The cache only speeds the local fits up; CSV bytes do not depend on
  // it.
  engine::solve_cache local_cache;
  engine::runner_options local_options;
  local_options.threads = 1;
  local_options.cache = &local_cache;
  const std::string local_csv =
      engine::run_sweep(ctx, scenarios, local_options).table.to_csv();

  engine::service_options service_options;
  service_options.socket_path = temp_path("remote.sock").string();
  service_options.threads = 1;
  engine::dl_service service(make_context("svc"), service_options);
  const engine::model_registry remote =
      engine::remote_registry(service.socket_path());

  // One shard through `registry`; null runs locally, reusing the warm
  // local cache.
  const auto run_shard = [&](const engine::model_registry* registry,
                             shard_spec shard, std::size_t threads) {
    engine::runner_options options;
    options.threads = threads;
    options.registry = registry;
    options.shard = shard;
    if (registry == nullptr) options.cache = &local_cache;
    return engine::run_sweep(ctx, scenarios, options).table;
  };

  for (const std::size_t n : {2u, 3u}) {
    std::vector<engine::result_table> tables;
    for (std::size_t i = 0; i < n; ++i)
      tables.push_back(run_shard(&remote, shard_spec{i, n}, 1));
    EXPECT_EQ(engine::merge_tables(tables).to_csv(), local_csv) << "n=" << n;
  }

  // One local and one remote shard of the same sweep.  They partition
  // alike only because the remote models report the local capabilities,
  // so both sides form the same chunks.
  ASSERT_EQ(engine::batch_sweep(scenarios, remote),
            engine::batch_sweep(scenarios));
  const std::vector<engine::result_table> mixed = {
      run_shard(nullptr, shard_spec{0, 2}, 1),
      run_shard(&remote, shard_spec{1, 2}, 1)};
  EXPECT_EQ(engine::merge_tables(mixed).to_csv(), local_csv);

  // Four pool workers requesting at once over pooled connections.
  EXPECT_EQ(run_shard(&remote, shard_spec{0, 1}, 4).to_csv(), local_csv);

  // The stats verb reports the merge counters alongside the hit/miss
  // line, so a fleet driver can watch shard-merge health remotely.
  engine::service_client client(service.socket_path());
  const std::string stats = client.request("stats");
  EXPECT_TRUE(stats.starts_with("ok stats ")) << stats;
  EXPECT_NE(stats.find(" merged="), std::string::npos) << stats;
  EXPECT_NE(stats.find(" merge_conflicts="), std::string::npos) << stats;

  service.stop();
}

/// An "err" reply is the server's deterministic answer: it fails the
/// scenario at once — no retries — with the reply and the scenario named.
TEST(RemoteShard, ErrRepliesFailTheScenarioWithoutRetrying) {
  engine::service_options service_options;
  service_options.socket_path = temp_path("err.sock").string();
  service_options.threads = 1;
  engine::dl_service service(make_context("svc"), service_options);

  // The local slice is "other"; the server only hosts "svc".
  const engine::scenario_context ctx = make_context("other");
  engine::sweep_spec spec = make_spec();
  spec.rates = {"preset"};
  spec.domains = {"line"};
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(spec, ctx);
  engine::remote_options patient;
  patient.retries = 50;
  patient.backoff_initial_ms = 1000.0;
  const engine::model_registry remote =
      engine::remote_registry(service.socket_path(), patient);
  engine::runner_options options;
  options.threads = 1;
  options.registry = &remote;

  const auto start = std::chrono::steady_clock::now();
  try {
    (void)engine::run_sweep(ctx, scenarios, options);
    ADD_FAILURE() << "an err reply must fail the sweep";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scenario #0 (model 'dl', slice 'other')"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("err unknown slice 'other'"), std::string::npos)
        << what;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1))
      << "an err reply was retried";
  service.stop();
}

// ------------------------------------------------------- dl_shard CLI
//
// DLM_SHARD_BIN is the built dl_shard tool (wired in CMakeLists.txt).
// Every numeric flag goes through one strict parser: a sign, trailing
// bytes and non-finite values are usage errors naming the flag and the
// argv position of the bad value, never a wrapped or truncated number.

#ifdef DLM_SHARD_BIN

struct cli_outcome {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr together
};

cli_outcome run_dl_shard(const std::string& args) {
  const std::string command = std::string(DLM_SHARD_BIN) + " " + args + " 2>&1";
  cli_outcome outcome;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return outcome;
  char buffer[512];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
    outcome.output.append(buffer, n);
  const int status = ::pclose(pipe);
  outcome.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return outcome;
}

TEST(ShardCli, RejectsMalformedNumbersByFlagAndPosition) {
  const struct {
    const char* args;
    const char* flag;
    const char* position;
  } cases[] = {
      {"--shards -1", "--shards", "at position 2"},
      {"--shards 2x", "--shards", "at position 2"},
      {"--shards 2 --threads 4x", "--threads", "at position 4"},
      {"--shards 2 --threads -4", "--threads", "at position 4"},
      {"--shards 2 --retries -1", "--retries", "at position 4"},
      {"--shards 2 --retries ' 1'", "--retries", "at position 4"},
      {"--bench --bench-rates -3", "--bench-rates", "at position 3"},
      {"--bench --bench-rates 99999999999999999999999", "--bench-rates",
       "at position 3"},
      {"--bench --bench-shards 1,-2", "--bench-shards", "at position 3"},
      {"--bench --bench-shards 1,,2", "--bench-shards", "at position 3"},
      {"--shards 2 --timeout nan", "--timeout", "at position 4"},
      {"--shards 2 --timeout inf", "--timeout", "at position 4"},
      {"--shards 2 --timeout -1", "--timeout", "at position 4"},
      {"--shards 2 --timeout 5s", "--timeout", "at position 4"},
      {"--shards 2 --backoff nan", "--backoff", "at position 4"},
      {"--shards 2 --backoff -10", "--backoff", "at position 4"},
      {"--shards 2 --backoff 1e999", "--backoff", "at position 4"},
  };
  for (const auto& c : cases) {
    const cli_outcome outcome = run_dl_shard(c.args);
    EXPECT_EQ(outcome.exit_code, 2) << c.args << "\n" << outcome.output;
    EXPECT_NE(outcome.output.find(std::string(c.flag) + " expects a "),
              std::string::npos)
        << c.args << "\n" << outcome.output;
    EXPECT_NE(outcome.output.find(c.position), std::string::npos)
        << c.args << "\n" << outcome.output;
    EXPECT_NE(outcome.output.find("usage: dl_shard"), std::string::npos)
        << c.args << "\n" << outcome.output;
  }
}

TEST(ShardCli, RejectsZeroCountsAndPolicies) {
  EXPECT_EQ(run_dl_shard("--shards 0").exit_code, 2);
  EXPECT_EQ(run_dl_shard("--bench --bench-rates 0").exit_code, 2);
  EXPECT_EQ(run_dl_shard("--bench --bench-shards 1,0").exit_code, 2);
  // There is one partition, so there is no policy to choose.
  const cli_outcome policy = run_dl_shard("--shards 2 --policy strided");
  EXPECT_EQ(policy.exit_code, 2);
  EXPECT_NE(policy.output.find("unknown argument '--policy' at position 3"),
            std::string::npos)
      << policy.output;
  const cli_outcome worker = run_dl_shard("--worker 0/2:contiguous --csv x");
  EXPECT_EQ(worker.exit_code, 2);
  EXPECT_NE(worker.output.find("accepted shard spec form:"), std::string::npos)
      << worker.output;
}

TEST(ShardCli, RejectsATimeoutPastTheWaitCap) {
  // 1e300 is finite, so the strict number parser takes it; the worker
  // deadline's duration_cast to steady_clock::duration would overflow.
  const cli_outcome outcome = run_dl_shard("--shards 2 --timeout 1e300");
  EXPECT_EQ(outcome.exit_code, 2) << outcome.output;
  EXPECT_NE(outcome.output.find(
                "--timeout must be at most 1e9 seconds at position 4"),
            std::string::npos)
      << outcome.output;
  // The cap itself passes the flag checks (the missing mode fails next).
  const cli_outcome at_cap = run_dl_shard("--timeout 1e9");
  EXPECT_EQ(at_cap.exit_code, 2) << at_cap.output;
  EXPECT_NE(at_cap.output.find("exactly one of --shards"), std::string::npos)
      << at_cap.output;
}

TEST(ShardCli, RejectsARetryScheduleThatDoublesPastTheWaitCap) {
  // 100 ms doubled per retry passes 1e9 s after 34 retries; a larger
  // --retries would schedule a wait no steady_clock::duration holds.
  for (const char* args : {"--shards 2 --retries 5000",
                           "--shards 2 --backoff 1e12 --retries 2",
                           "--shards 2 --retries 2 --backoff 1e13"}) {
    const cli_outcome outcome = run_dl_shard(args);
    EXPECT_EQ(outcome.exit_code, 2) << args << "\n" << outcome.output;
    EXPECT_NE(outcome.output.find("--retries with --backoff doubles past 1e9 "
                                  "seconds before the last retry at position"),
              std::string::npos)
        << args << "\n" << outcome.output;
  }
  const cli_outcome within = run_dl_shard("--retries 34");
  EXPECT_NE(within.output.find("exactly one of --shards"), std::string::npos)
      << within.output;
}

TEST(ShardCli, RejectsACacheFileForARemoteWorker) {
  // The server owns the cache of a remote shard; a --cache-file there
  // would silently never be written.
  const cli_outcome outcome = run_dl_shard(
      "--worker 0/2 --csv x.csv --socket /nonexistent.sock --cache-file c");
  EXPECT_EQ(outcome.exit_code, 2) << outcome.output;
  EXPECT_NE(outcome.output.find("--cache-file does not apply with --socket"),
            std::string::npos)
      << outcome.output;
  EXPECT_NE(outcome.output.find("at position 7"), std::string::npos)
      << outcome.output;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// The real driver: N worker processes merge to the CSV and cache bytes
/// of one `--worker 0/1` process.
TEST(ShardCli, ShardedRunsMergeToTheOneWorkerBytes) {
  const std::string ref = temp_path("cli_ref.csv").string();
  ASSERT_EQ(run_dl_shard("--worker 0/1 --bench-rates 4 --csv " + ref +
                         " --cache-file " + ref + ".cache")
                .exit_code,
            0);
  for (const std::size_t n : {2u, 3u, 4u, 8u}) {
    const std::string csv =
        temp_path("cli_" + std::to_string(n) + ".csv").string();
    const cli_outcome outcome =
        run_dl_shard("--shards " + std::to_string(n) + " --bench-rates 4" +
                     " --csv " + csv + " --cache-file " + csv + ".cache");
    ASSERT_EQ(outcome.exit_code, 0) << outcome.output;
    EXPECT_EQ(read_bytes(csv), read_bytes(ref)) << "n=" << n;
    EXPECT_EQ(read_bytes(csv + ".cache"), read_bytes(ref + ".cache"))
        << "n=" << n;
    std::filesystem::remove(csv);
    std::filesystem::remove(csv + ".cache");
  }
  std::filesystem::remove(ref);
  std::filesystem::remove(ref + ".cache");
}

#endif  // DLM_SHARD_BIN

}  // namespace
