// Sharded sweep driver — fork/exec N worker processes over one
// deterministic sweep and merge their outputs byte-identically.
//
// The engine's scenario expansion is a deterministic indexed list and
// engine::shard_chunks partitions it batch-chunk-aligned (see
// engine/shard.h), so each worker process runs a disjoint slice of the
// sweep with global scenario numbering intact.  This driver re-execs
// itself as the workers, waits for them, and recombines:
//
//   * shard CSVs   → engine::merge_tables → one CSV, byte-identical to
//                    the unsharded run's;
//   * shard caches → engine::merge_cache_files → one cache file,
//                    byte-identical to the unsharded run's.
//
// Modes:
//
//   dl_shard --shards N [--sweep bench|comparison] [--csv out.csv]
//            [--text out.txt] [--cache-file out.cache] [--threads T]
//            [--batch-width W] [--timeout S] [--retries R] [--backoff MS]
//            [--allow-partial] [--manifest out.json] [--journal]
//            [--fault PLAN]
//       run the sweep as N local worker processes and merge, the batch
//       chunks cost-balanced across them (engine/shard.h).  Workers
//       run under engine::supervise: a crashed worker's diagnostic
//       names the signal and shard, a hung worker is killed after
//       --timeout seconds, failures retry up to --retries times with
//       exponential backoff.  By default any finally-failed worker
//       aborts the run (and its siblings); with --allow-partial the
//       completed shards still merge — each surviving row byte-
//       identical to the unsharded run's — and a JSON manifest records
//       per-worker outcomes plus the missing sweep indices.  --journal
//       write-ahead-journals each worker's cache ("<cache>.wal", see
//       engine/cache_journal.h); --fault injects deterministic
//       failures (engine/fault.h grammar) for tests and drills.
//
//   dl_shard --worker i/N --csv out.csv [--sweep ...]
//            [--cache-file f] [--threads T] [--batch-width W]
//            [--socket /path/dlm.sock]
//       run one shard (the driver spawns these; also usable by hand —
//       e.g. one per machine).  With --socket the same run_sweep solves
//       and calibrates on a resident dl_serve server instead of locally
//       (its models come from engine::remote_registry), so remote and
//       local shards of one sweep merge.  The server owns the cache
//       there, so --cache-file with --socket is a usage error.
//
//   dl_shard --merge out.csv in0.csv in1.csv ...
//   dl_shard --merge-cache out.cache in0.cache in1.cache ...
//       recombine shard outputs produced elsewhere (other machines,
//       earlier runs).
//
//   dl_shard --bench [--bench-out BENCH_shard.json]
//            [--bench-shards 1,2,4,8] [--bench-rates R]
//       scaling report: scenarios/sec at each process count (workers
//       pinned to 1 thread each), merge cost separately, and the
//       byte-identity check against the 1-process run.  Honest by
//       construction: the JSON records hardware_concurrency, so a
//       single-core box showing ~1× is the expected reading there.
//
// Sweeps: "bench" is a self-contained DL surface (the dl_serve test
// surface) × one scheme × 3 grids × R constant rates — pure solver
// throughput.  "comparison" is examples/model_comparison's organic-
// cascade sweep (every model family × schemes × grids × rates ×
// domains, calibration included) — the full-diversity workload CI
// byte-diffs against `model_comparison --shard`.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.h"
#include "digg/simulator.h"
#include "engine/cache_io.h"
#include "engine/fault.h"
#include "engine/format.h"
#include "engine/scenario_runner.h"
#include "engine/service.h"
#include "engine/shard.h"
#include "engine/supervisor.h"
#include "graph/generators.h"

namespace {

using namespace dlm;
using namespace dlm::cli;

// ------------------------------------------------------------------ CLI

const char* kUsage =
    "usage: dl_shard --shards N [--sweep bench|comparison]\n"
    "                [--csv out.csv] [--text out.txt]\n"
    "                [--cache-file out.cache]\n"
    "                [--threads T] [--batch-width W] [--timeout S]\n"
    "                [--retries R] [--backoff MS] [--allow-partial]\n"
    "                [--manifest out.json] [--journal] [--fault PLAN]\n"
    "       dl_shard --worker <i>/<N> --csv out.csv\n"
    "                [--sweep ...] [--threads T] [--batch-width W]\n"
    "                [--cache-file f [--journal] | --socket /path/dlm.sock]\n"
    "                [--fault PLAN]\n"
    "       dl_shard --merge out.csv in0.csv in1.csv ...\n"
    "       dl_shard --merge-cache out.cache in0.cache in1.cache ...\n"
    "       dl_shard --bench [--bench-out BENCH_shard.json]\n"
    "                [--bench-shards 1,2,4,8] [--bench-rates R]\n";

int bad_cli(const std::string& reason, int position) {
  return cli::bad_cli("dl_shard", reason, position, kUsage);
}

struct cli_options {
  // driver
  std::size_t shards = 0;
  // worker
  std::optional<engine::shard_spec> worker;
  std::string socket_path;
  // shared
  std::string sweep = "bench";
  std::string csv_path;
  std::string text_path;
  std::string cache_path;
  int cache_position = 0;  ///< argv position of --cache-file, for errors
  std::size_t threads = 0;
  std::size_t batch_width = 0;
  // failure domain (driver: supervision; worker: fault arming + journal)
  double timeout_sec = 0.0;
  std::size_t retries = 0;
  double backoff_ms = 100.0;
  bool allow_partial = false;
  std::string manifest_path;  ///< default: "<csv>.manifest.json"
  bool journal = false;
  std::string fault_spec;
  // merge CLIs: out followed by inputs, argv positions kept for errors
  bool merge_tables_mode = false;
  bool merge_cache_mode = false;
  std::vector<std::pair<std::string, int>> merge_files;
  // bench
  bool bench = false;
  std::string bench_out = "BENCH_shard.json";
  std::vector<std::size_t> bench_shards = {1, 2, 4, 8};
  std::size_t bench_rates = 128;
};

// ----------------------------------------------------------- the sweeps

struct sweep_setup {
  engine::scenario_context context;
  engine::sweep_spec spec;
  fit::calibration_options calibration;
};

/// Pure-throughput sweep for the scaling bench: one slice, one scheme,
/// 3 grid resolutions × `rate_count` distinct constant rates (distinct
/// cache keys, so no accidental dedup).
sweep_setup make_bench_sweep(std::size_t rate_count) {
  sweep_setup setup;
  setup.context = make_test_surface();
  setup.spec.models = {"dl"};
  setup.spec.schemes = {core::dl_scheme::strang_cn};
  setup.spec.grid = {80, 160, 320};
  setup.spec.dts = {0.02};
  setup.spec.rates.clear();
  for (std::size_t k = 0; k < rate_count; ++k)
    setup.spec.rates.push_back(
        "constant:" + engine::format_full_precision(
                          0.05 + 0.0025 * static_cast<double>(k)));
  return setup;
}

/// examples/model_comparison's organic-cascade sweep, verbatim — the
/// driver must expand the identical scenario list for its shard CSVs to
/// merge byte-identically with that binary's `--shard` outputs.
sweep_setup make_comparison_sweep() {
  num::rng rand(777);
  graph::digg_graph_params gp;
  gp.users = 12000;
  gp.attach = 6;
  graph::digraph followers = graph::digg_follower_graph(gp, rand);
  graph::node_id initiator = 0;
  for (graph::node_id v = 0; v < followers.node_count(); ++v) {
    if (followers.in_degree(v) > followers.in_degree(initiator)) initiator = v;
  }
  digg::cascade_params cp;
  cp.horizon_hours = 12;
  const std::vector<social::vote> votes =
      digg::simulate_cascade(followers, initiator, 0, 0, cp, rand);

  sweep_setup setup;
  setup.context = engine::scenario_context::from_cascade(
      std::move(followers), initiator, votes, cp.horizon_hours);
  setup.spec.models = engine::default_registry().names();
  setup.spec.schemes = {core::dl_scheme::ftcs, core::dl_scheme::strang_cn,
                        core::dl_scheme::implicit_newton,
                        core::dl_scheme::mol_rk4};
  setup.spec.grid = {20, 40};
  setup.spec.rates = {"preset", "constant:0.5",
                      "spatial:preset|1.2,1,0.8,0.65", "calibrate",
                      "calibrate-spatial"};
  setup.spec.domains = {"line", "grid2d:1,4", "comm:3|mix=0.05"};
  setup.spec.t_end = cp.horizon_hours;
  setup.calibration.coarse_steps = 3;
  return setup;
}

sweep_setup make_sweep(const std::string& name, std::size_t bench_rates) {
  if (name == "bench") return make_bench_sweep(bench_rates);
  if (name == "comparison") return make_comparison_sweep();
  throw std::invalid_argument("unknown sweep '" + name +
                              "' (bench, comparison)");
}

// ----------------------------------------------------- process spawning

/// The path this binary was launched from, for re-exec'ing workers.
std::string self_executable(const char* argv0) {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n > 0) {
    buffer[n] = '\0';
    return buffer;
  }
  return argv0;
}

// ------------------------------------------------------------- the merge

engine::result_table merge_csv_files(
    const std::vector<std::filesystem::path>& inputs) {
  std::vector<engine::result_table> tables;
  tables.reserve(inputs.size());
  for (const std::filesystem::path& path : inputs)
    tables.push_back(engine::result_table::from_csv(read_file(path)));
  return engine::merge_tables(tables);
}

struct merged_cache_report {
  engine::cache_merge_result merge;
  std::uintmax_t file_bytes = 0;
  std::size_t entries = 0;
};

merged_cache_report merge_cache_files_to(
    const std::filesystem::path& out,
    const std::vector<std::filesystem::path>& inputs) {
  engine::solve_cache merged;
  merged_cache_report report;
  report.merge = engine::merge_cache_files(merged, inputs);
  engine::save_cache(merged, out);
  report.file_bytes = std::filesystem::file_size(out);
  report.entries = merged.size();
  return report;
}

// ---------------------------------------------------------- worker mode

int run_worker(const cli_options& opt) {
  const sweep_setup setup = make_sweep(opt.sweep, opt.bench_rates);
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(setup.spec, setup.context);

  // Injected faults arm against this shard's index and the attempt
  // number the supervisor exported (1 when run by hand).
  engine::fault_plan fault;
  if (!opt.fault_spec.empty())
    fault = engine::parse_fault_plan(opt.fault_spec);
  const std::size_t attempt = engine::worker_attempt_from_env();

  engine::runner_options options;
  options.threads = opt.threads;
  options.batch_width = opt.batch_width;
  options.shard = *opt.worker;
  options.calibration = setup.calibration;
  options.on_chunk_start =
      engine::make_fault_hook(fault, opt.worker->index, attempt);
  // Remote execution: the same sweep, its models solving and calibrating
  // on a resident dl_serve server (which owns the warm cache).
  engine::model_registry remote;
  if (!opt.socket_path.empty()) {
    remote = engine::remote_registry(opt.socket_path);
    options.registry = &remote;
  }
  std::optional<engine::persistent_cache> persist;
  if (!opt.cache_path.empty()) {
    engine::journal_options jopt;
    jopt.enabled = opt.journal;
    jopt.torn_write_record = fault.torn_write_record(attempt);
    persist.emplace(opt.cache_path, 0, jopt);
    if (!persist->write_error().empty()) return 1;  // already on stderr
    options.cache = &persist->cache();
  }
  const engine::result_table table =
      engine::run_sweep(setup.context, scenarios, options).table;

  write_file(opt.csv_path, table.to_csv());
  std::printf("worker %s: %zu of %zu scenarios -> %s\n",
              opt.worker->label().c_str(), table.size(), scenarios.size(),
              opt.csv_path.c_str());
  if (persist) {
    // Explicit flush so an I/O failure surfaces as a nonzero exit, not
    // a destructor's best-effort stderr line.
    try {
      persist->flush();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dl_shard: cache flush failed: %s\n", e.what());
      return 1;
    }
    // A latched journal error (real I/O trouble or an injected
    // torn-write) also fails the worker — the snapshot flushed above,
    // but the crash-safety contract did not hold this run.
    if (persist->journal() != nullptr &&
        !persist->journal()->write_error().empty()) {
      std::fprintf(stderr, "dl_shard: journal error: %s\n",
                   persist->journal()->write_error().c_str());
      return 1;
    }
  }
  return 0;
}

// ---------------------------------------------------------- driver mode

struct shard_run_report {
  double sweep_ms = 0.0;
  double merge_ms = 0.0;
  std::string merged_csv;
  merged_cache_report cache;
  std::size_t scenarios = 0;
  /// Per-worker supervision outcomes, in shard order.
  engine::supervision_report workers;
  /// Sweep indices missing from the merge (always empty unless
  /// allow_partial let a run with failed workers through).
  std::vector<std::size_t> missing;
};

/// Runs `shards` supervised workers over `opt`'s sweep, merges their
/// CSVs (and caches when opt.cache_path is set) and removes the
/// per-worker temp files.  Without allow_partial, any finally-failed
/// worker throws (its diagnostic naming the signal/timeout and shard);
/// with it, the completed shards merge and `missing` lists the gap.
shard_run_report run_sharded(const cli_options& opt, const std::string& exe,
                             std::size_t shards, std::size_t scenario_count) {
  shard_run_report report;
  report.scenarios = scenario_count;

  std::vector<std::filesystem::path> csvs;
  std::vector<std::filesystem::path> caches;
  std::vector<engine::worker_command> commands;
  for (std::size_t i = 0; i < shards; ++i) {
    const std::string worker_spec = engine::shard_spec{i, shards}.label();
    const std::string csv = opt.csv_path + ".shard" + std::to_string(i);
    csvs.push_back(csv);
    std::vector<std::string> args{"--worker",    worker_spec,
                                  "--sweep",     opt.sweep,
                                  "--csv",       csv,
                                  "--threads",   std::to_string(opt.threads),
                                  "--bench-rates",
                                  std::to_string(opt.bench_rates)};
    if (opt.batch_width != 0) {
      args.push_back("--batch-width");
      args.push_back(std::to_string(opt.batch_width));
    }
    if (!opt.cache_path.empty()) {
      const std::string cache =
          opt.cache_path + ".shard" + std::to_string(i);
      caches.push_back(cache);
      args.push_back("--cache-file");
      args.push_back(cache);
      if (opt.journal) args.push_back("--journal");
    }
    if (!opt.fault_spec.empty()) {
      args.push_back("--fault");
      args.push_back(opt.fault_spec);
    }
    engine::worker_command command;
    command.exe = exe;
    command.args = std::move(args);
    command.label = "worker " + worker_spec;
    commands.push_back(std::move(command));
  }

  engine::supervisor_options sup;
  sup.timeout_sec = opt.timeout_sec;
  sup.max_retries = opt.retries;
  sup.backoff_initial_ms = opt.backoff_ms;
  sup.fail_fast = !opt.allow_partial;
  const clock_type::time_point sweep_start = clock_type::now();
  report.workers = engine::supervise(commands, sup);
  report.sweep_ms = elapsed_ms(sweep_start);

  const auto cleanup = [&] {
    std::error_code ec;
    for (const std::filesystem::path& path : csvs)
      std::filesystem::remove(path, ec);
    for (const std::filesystem::path& path : caches) {
      std::filesystem::remove(path, ec);
      std::filesystem::remove(engine::cache_journal_path(path), ec);
    }
  };

  if (!report.workers.all_succeeded() && !opt.allow_partial) {
    cleanup();
    std::string what;
    for (const engine::worker_outcome& o : report.workers.failures()) {
      if (!what.empty()) what += "; ";
      what += o.label + ": " + o.diagnostic;
    }
    throw std::runtime_error(what);
  }

  // Merge what completed.  On full success this is the historical
  // exact-partition merge (a gap there is corruption and still throws);
  // a partial run merges the surviving shards and records the gap.
  const clock_type::time_point merge_start = clock_type::now();
  std::vector<std::filesystem::path> good_csvs;
  std::vector<std::filesystem::path> good_caches;
  for (std::size_t i = 0; i < shards; ++i) {
    if (!report.workers.outcomes[i].succeeded) continue;
    good_csvs.push_back(csvs[i]);
    if (!caches.empty()) good_caches.push_back(caches[i]);
  }
  if (report.workers.all_succeeded()) {
    report.merged_csv = merge_csv_files(good_csvs).to_csv();
  } else {
    std::vector<engine::result_table> tables;
    tables.reserve(good_csvs.size());
    for (const std::filesystem::path& path : good_csvs)
      tables.push_back(engine::result_table::from_csv(read_file(path)));
    engine::partial_merge partial =
        engine::merge_tables_partial(tables, scenario_count);
    report.merged_csv = partial.table.to_csv();
    report.missing = std::move(partial.missing);
  }
  if (!good_caches.empty())
    report.cache = merge_cache_files_to(opt.cache_path, good_caches);
  report.merge_ms = elapsed_ms(merge_start);

  cleanup();
  return report;
}

/// The machine-readable outcome record of an --allow-partial run: which
/// workers finished (with attempts and diagnostics) and exactly which
/// global sweep indices are missing from the merged CSV.  Documented in
/// docs/robustness.md; CI parses it after an injected worker crash.
std::string render_manifest(const cli_options& opt,
                            const shard_run_report& report,
                            std::size_t shards) {
  std::string json = "{\n";
  json += "  \"sweep\": \"" + json_escape(opt.sweep) + "\",\n";
  json += "  \"scenarios\": " + std::to_string(report.scenarios) + ",\n";
  json += "  \"shards\": " + std::to_string(shards) + ",\n";
  json += "  \"workers\": [\n";
  for (std::size_t i = 0; i < report.workers.outcomes.size(); ++i) {
    const engine::worker_outcome& o = report.workers.outcomes[i];
    json += "    {\"shard\": " + std::to_string(i) +
            ", \"succeeded\": " + (o.succeeded ? "true" : "false") +
            ", \"attempts\": " + std::to_string(o.attempts) +
            ", \"timed_out\": " + (o.timed_out ? "true" : "false") +
            ", \"diagnostic\": \"" + json_escape(o.diagnostic) + "\"}";
    json += i + 1 < report.workers.outcomes.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"missing_indices\": [";
  for (std::size_t k = 0; k < report.missing.size(); ++k) {
    if (k > 0) json += ", ";
    json += std::to_string(report.missing[k]);
  }
  json += "]\n}\n";
  return json;
}

int run_driver(const cli_options& opt, const std::string& exe) {
  const sweep_setup setup = make_sweep(opt.sweep, opt.bench_rates);
  const std::size_t scenario_count =
      engine::expand_sweep(setup.spec, setup.context).size();

  const shard_run_report report =
      run_sharded(opt, exe, opt.shards, scenario_count);
  write_file(opt.csv_path, report.merged_csv);
  if (!opt.text_path.empty())
    write_file(opt.text_path,
               engine::result_table::from_csv(report.merged_csv).to_text());
  if (opt.allow_partial) {
    const std::string manifest = opt.manifest_path.empty()
                                     ? opt.csv_path + ".manifest.json"
                                     : opt.manifest_path;
    write_file(manifest, render_manifest(opt, report, opt.shards));
    std::printf("  manifest -> %s\n", manifest.c_str());
  }
  if (!report.missing.empty())
    std::printf("  PARTIAL: %zu of %zu scenarios missing (%zu worker(s) "
                "failed); completed rows are byte-identical to the "
                "unsharded run's\n",
                report.missing.size(), scenario_count,
                report.workers.failures().size());

  std::printf("sweep '%s': %zu scenarios over %zu shard processes\n",
              opt.sweep.c_str(), scenario_count, opt.shards);
  std::printf("  sweep %.1f ms (%.1f scenarios/sec), merge %.1f ms\n",
              report.sweep_ms,
              report.sweep_ms > 0.0
                  ? 1000.0 * static_cast<double>(scenario_count) /
                        report.sweep_ms
                  : 0.0,
              report.merge_ms);
  std::printf("  merged CSV -> %s\n", opt.csv_path.c_str());
  if (!opt.cache_path.empty())
    std::printf("  merged cache -> %s (%zu entries, %ju bytes, "
                "%zu traces + %zu values adopted, %zu duplicates, "
                "%zu conflicts)\n",
                opt.cache_path.c_str(), report.cache.entries,
                static_cast<std::uintmax_t>(report.cache.file_bytes),
                report.cache.merge.merged_traces,
                report.cache.merge.merged_values,
                report.cache.merge.duplicates, report.cache.merge.conflicts);
  return 0;
}

// ----------------------------------------------------------- bench mode

int run_bench(const cli_options& opt, const std::string& exe) {
  const sweep_setup setup = make_sweep("bench", opt.bench_rates);
  const std::size_t scenario_count =
      engine::expand_sweep(setup.spec, setup.context).size();

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("dl_shard_bench_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  struct bench_run {
    std::size_t shards = 0;
    shard_run_report report;
    bool csv_identical = true;
  };
  std::vector<bench_run> runs;
  std::string reference_csv;
  for (const std::size_t n : opt.bench_shards) {
    cli_options worker_opt = opt;
    worker_opt.sweep = "bench";
    worker_opt.threads = 1;  // scale across processes, not threads
    worker_opt.csv_path = (dir / ("n" + std::to_string(n) + ".csv")).string();
    worker_opt.cache_path =
        (dir / ("n" + std::to_string(n) + ".cache")).string();
    bench_run run;
    run.shards = n;
    run.report = run_sharded(worker_opt, exe, n, scenario_count);
    if (reference_csv.empty())
      reference_csv = run.report.merged_csv;
    else
      run.csv_identical = run.report.merged_csv == reference_csv;
    std::printf("bench: %zu shard(s): sweep %.1f ms, merge %.1f ms, "
                "%.1f scenarios/sec, cache %ju bytes%s\n",
                n, run.report.sweep_ms, run.report.merge_ms,
                run.report.sweep_ms > 0.0
                    ? 1000.0 * static_cast<double>(scenario_count) /
                          run.report.sweep_ms
                    : 0.0,
                static_cast<std::uintmax_t>(run.report.cache.file_bytes),
                run.csv_identical ? "" : "  [CSV MISMATCH]");
    runs.push_back(std::move(run));
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  // The JSON report.  hardware_concurrency is recorded because the
  // scenarios/sec curve is only meaningful relative to it: N worker
  // processes on fewer than N cores cannot and should not show N×.
  std::string json = "{\n";
  json += "  \"name\": \"dl_shard_scaling\",\n";
  json += "  \"sweep\": \"bench\",\n";
  json += "  \"scenarios\": " + std::to_string(scenario_count) + ",\n";
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"worker_threads_each\": 1,\n";
  json += "  \"runs\": [\n";
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const bench_run& run = runs[r];
    const double sps = run.report.sweep_ms > 0.0
                           ? 1000.0 * static_cast<double>(scenario_count) /
                                 run.report.sweep_ms
                           : 0.0;
    json += "    {\"shards\": " + std::to_string(run.shards) +
            ", \"sweep_ms\": " + engine::format_full_precision(
                                     run.report.sweep_ms) +
            ", \"merge_ms\": " + engine::format_full_precision(
                                     run.report.merge_ms) +
            ", \"scenarios_per_sec\": " + engine::format_full_precision(sps) +
            ", \"cache_merge_bytes\": " +
            std::to_string(run.report.cache.file_bytes) +
            ", \"merged_cache_entries\": " +
            std::to_string(run.report.cache.entries) +
            ", \"merge_conflicts\": " +
            std::to_string(run.report.cache.merge.conflicts) +
            ", \"csv_identical_to_unsharded\": " +
            (run.csv_identical ? "true" : "false") + "}";
    json += r + 1 < runs.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  write_file(opt.bench_out, json);
  std::printf("wrote %s\n", opt.bench_out.c_str());
  return 0;
}

// ----------------------------------------------------------- merge CLIs

int run_merge_tables(const cli_options& opt) {
  const auto& files = opt.merge_files;
  std::vector<engine::result_table> tables;
  for (std::size_t i = 1; i < files.size(); ++i) {
    std::string bytes;
    try {
      bytes = read_file(files[i].first);
    } catch (const std::exception& e) {
      return bad_cli(e.what(), files[i].second);
    }
    try {
      tables.push_back(engine::result_table::from_csv(bytes));
    } catch (const std::exception& e) {
      return bad_cli("'" + files[i].first + "': " + e.what(),
                     files[i].second);
    }
  }
  const engine::result_table merged = engine::merge_tables(tables);
  write_file(files[0].first, merged.to_csv());
  std::printf("merged %zu shard CSVs (%zu rows) -> %s\n", tables.size(),
              merged.size(), files[0].first.c_str());
  return 0;
}

int run_merge_cache(const cli_options& opt) {
  const auto& files = opt.merge_files;
  std::vector<std::filesystem::path> inputs;
  for (std::size_t i = 1; i < files.size(); ++i) {
    if (!std::filesystem::exists(files[i].first))
      return bad_cli("cannot open '" + files[i].first + "'",
                     files[i].second);
    inputs.push_back(files[i].first);
  }
  const merged_cache_report report =
      merge_cache_files_to(files[0].first, inputs);
  std::printf("merged %zu shard caches -> %s (%zu entries, %ju bytes, "
              "%zu traces + %zu values adopted, %zu duplicates, "
              "%zu conflicts)\n",
              inputs.size(), files[0].first.c_str(), report.entries,
              static_cast<std::uintmax_t>(report.file_bytes),
              report.merge.merged_traces, report.merge.merged_values,
              report.merge.duplicates, report.merge.conflicts);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli_options opt;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::exit(bad_cli(std::string(what) + " needs a value", i));
      }
      return argv[++i];
    };
    try {
      if (arg == "--shards") {
        opt.shards = parse_cli_number<std::size_t>(arg, next("--shards"));
        if (opt.shards == 0)
          return bad_cli("--shards must be positive", i);
      } else if (arg == "--worker") {
        opt.worker = engine::parse_shard_spec(next("--worker"));
      } else if (arg == "--sweep") {
        opt.sweep = next("--sweep");
      } else if (arg == "--csv") {
        opt.csv_path = next("--csv");
      } else if (arg == "--text") {
        opt.text_path = next("--text");
      } else if (arg == "--cache-file") {
        opt.cache_position = i;
        opt.cache_path = next("--cache-file");
      } else if (arg == "--threads") {
        opt.threads = parse_cli_number<std::size_t>(arg, next("--threads"));
      } else if (arg == "--batch-width") {
        opt.batch_width =
            parse_cli_number<std::size_t>(arg, next("--batch-width"));
      } else if (arg == "--socket") {
        opt.socket_path = next("--socket");
      } else if (arg == "--timeout") {
        opt.timeout_sec = parse_cli_number<double>(arg, next("--timeout"));
      } else if (arg == "--retries") {
        opt.retries = parse_cli_number<std::size_t>(arg, next("--retries"));
      } else if (arg == "--backoff") {
        opt.backoff_ms = parse_cli_number<double>(arg, next("--backoff"));
      } else if (arg == "--allow-partial") {
        opt.allow_partial = true;
      } else if (arg == "--manifest") {
        opt.manifest_path = next("--manifest");
      } else if (arg == "--journal") {
        opt.journal = true;
      } else if (arg == "--fault") {
        // Parsed here so a bad plan is rejected at the command line
        // (with the grammar), not inside a worker.
        opt.fault_spec = next("--fault");
        (void)engine::parse_fault_plan(opt.fault_spec);
      } else if (arg == "--bench") {
        opt.bench = true;
      } else if (arg == "--bench-out") {
        opt.bench_out = next("--bench-out");
      } else if (arg == "--bench-rates") {
        opt.bench_rates =
            parse_cli_number<std::size_t>(arg, next("--bench-rates"));
        if (opt.bench_rates == 0)
          return bad_cli("--bench-rates must be positive", i);
      } else if (arg == "--bench-shards") {
        opt.bench_shards.clear();
        for (const std::string& piece :
             engine::split_keep_empty(next("--bench-shards"), ',')) {
          const std::size_t n = parse_cli_number<std::size_t>(arg, piece);
          if (n == 0) return bad_cli("shard count must be positive", i);
          opt.bench_shards.push_back(n);
        }
      } else if (arg == "--merge" || arg == "--merge-cache") {
        // Everything after is "out in0 in1 ..." — collected with argv
        // positions so a bad file is named by where it sits.
        (arg == "--merge" ? opt.merge_tables_mode : opt.merge_cache_mode) =
            true;
        for (++i; i < argc; ++i) opt.merge_files.emplace_back(argv[i], i);
        if (opt.merge_files.size() < 2)
          return bad_cli(arg + " needs an output and at least one input",
                         argc - 1);
      } else {
        return bad_cli("unknown argument '" + arg + "'", i);
      }
    } catch (const std::exception& e) {
      // Number / spec rejections, positioned at the value.
      return bad_cli(e.what(), i);
    }
  }

  const int modes = (opt.shards > 0 ? 1 : 0) + (opt.worker ? 1 : 0) +
                    (opt.merge_tables_mode ? 1 : 0) +
                    (opt.merge_cache_mode ? 1 : 0) + (opt.bench ? 1 : 0);
  if (modes != 1)
    return bad_cli(
        "exactly one of --shards, --worker, --merge, --merge-cache, "
        "--bench is required",
        argc > 1 ? 1 : 0);

  try {
    if (opt.merge_tables_mode) return run_merge_tables(opt);
    if (opt.merge_cache_mode) return run_merge_cache(opt);
    const std::string exe = self_executable(argv[0]);
    if (opt.bench) return run_bench(opt, exe);
    if (opt.worker) {
      if (opt.csv_path.empty())
        return bad_cli("--worker requires --csv", 1);
      if (!opt.socket_path.empty() && !opt.cache_path.empty())
        return bad_cli(
            "--cache-file does not apply with --socket (the server owns "
            "the cache)",
            opt.cache_position);
      return run_worker(opt);
    }
    if (opt.csv_path.empty()) opt.csv_path = "dl_shard.csv";
    return run_driver(opt, exe);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dl_shard: %s\n", e.what());
    return 1;
  }
}
