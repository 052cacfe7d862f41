// shard_batched: the dl_shard binary's 4-way process split over a purely
// batched strang-cn sweep.

#include <sys/wait.h>

#include <cerrno>
#include <map>

#include "core/dl_model.h"
#include "engine/format.h"
#include "engine/result_table.h"
#include "engine/scenario_runner.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace engine = dlm::engine;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kShards = 4;
/// Constant rates of the sweep: 3 grids × 512 = 1536 scenarios, about
/// 1.3 s per 4-way run on 4 cores, so a run holds ~20 samples.
constexpr std::size_t kRates = 512;
constexpr std::size_t kScenarios = 3 * kRates;
constexpr int kSetupRepeats = 5;

std::vector<std::string> shard_cmd(const run_config& config,
                                   std::vector<std::string> args) {
  args.insert(args.begin(), config.shard_bin);
  return args;
}

std::vector<std::string> sweep_args() {
  return {"--sweep", "bench", "--threads", "1", "--bench-rates",
          std::to_string(kRates)};
}

std::vector<std::string> concat(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// dl_shard's "bench" sweep rebuilt in-process (dl_serve's test surface
/// × strang-cn × grids 80/160/320 × constant rates); the traced run
/// checks its CSV against the binary's, so any drift shows as a failure.
engine::scenario_context make_test_surface() {
  dlm::core::dl_parameters truth = dlm::core::dl_parameters::paper_hops(6.0);
  truth.d = 0.06;
  truth.k = 22.0;
  const std::vector<double> initial{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};
  const dlm::core::dl_model model(truth, initial, 1.0, 6.0);
  std::vector<std::vector<double>> surface(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    surface[i].push_back(initial[i]);
    for (int t = 2; t <= 6; ++t)
      surface[i].push_back(model.predict(static_cast<int>(i) + 1, t));
  }
  return engine::scenario_context::from_surface(
      "bench", dlm::social::distance_metric::friendship_hops,
      std::move(surface), dlm::core::dl_parameters::paper_hops(6.0));
}

engine::sweep_spec make_bench_spec(std::size_t rates) {
  engine::sweep_spec spec;
  spec.models = {"dl"};
  spec.schemes = {dlm::core::dl_scheme::strang_cn};
  spec.grid = {80, 160, 320};
  spec.dts = {0.02};
  spec.rates.clear();
  for (std::size_t k = 0; k < rates; ++k)
    spec.rates.push_back("constant:" + engine::format_full_precision(
                                           0.05 + 0.0025 * static_cast<double>(k)));
  return spec;
}

struct reference {
  std::string csv;
  std::string cache;
};

/// One unsharded `--worker 0/1` run: the bytes every split must merge to.
reference make_reference(const run_config& config, report& rep) {
  const fs::path dir = config.workdir;
  const int rc = run(shard_cmd(config, concat({"--worker", "0/1", "--csv",
                                               (dir / "ref.csv").string(),
                                               "--cache-file",
                                               (dir / "ref.cache").string()},
                                              sweep_args())),
                     dir / "dl_shard.log");
  rep.check("reference: dl_shard --worker 0/1 exits 0", rc == 0,
            "exit " + std::to_string(rc));
  if (rc != 0) return {};
  return {read_file(dir / "ref.csv"), read_file(dir / "ref.cache")};
}

/// One untraced `--shards 4` run; returns its wall seconds (negative on
/// a nonzero exit).
double sharded_run(const run_config& config, const fs::path& csv,
                   const fs::path& cache) {
  const clock_type::time_point start = clock_type::now();
  const int rc = run(
      shard_cmd(config, concat({"--shards", std::to_string(kShards), "--csv",
                                csv.string(), "--cache-file", cache.string()},
                               sweep_args())),
      config.workdir / "dl_shard.log");
  const double wall = seconds_since(start);
  return rc == 0 ? wall : -1.0;
}

void untraced(const run_config& config, report& rep) {
  const fs::path dir = config.workdir;
  std::vector<double> setup_s;
  bool setup_ok = true;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const clock_type::time_point start = clock_type::now();
    const int rc = run(
        shard_cmd(config, {"--worker", "0/1", "--sweep", "bench", "--threads",
                           "1", "--bench-rates", "1", "--csv",
                           (dir / "setup.csv").string()}),
        dir / "dl_shard.log");
    setup_s.push_back(seconds_since(start));
    setup_ok = setup_ok && rc == 0;
  }
  rep.check("setup: one-rate dl_shard worker exits 0", setup_ok);

  std::vector<double> walls_ms;
  std::vector<double> rates;
  std::size_t failures = 0;
  std::size_t mismatches = 0;
  std::string first_csv;
  std::string first_cache;
  const clock_type::time_point begin = clock_type::now();
  do {
    const double wall = sharded_run(config, dir / "run.csv", dir / "run.cache");
    rep.operations(kScenarios, wall < 0.0 ? kScenarios : 0);
    if (wall < 0.0) {
      ++failures;
      continue;
    }
    walls_ms.push_back(1e3 * wall);
    rates.push_back(static_cast<double>(kScenarios) / wall);
    std::string csv = read_file(dir / "run.csv");
    std::string cache = read_file(dir / "run.cache");
    if (first_csv.empty()) {
      first_csv = std::move(csv);
      first_cache = std::move(cache);
    } else if (csv != first_csv || cache != first_cache) {
      ++mismatches;
    }
  } while (seconds_since(begin) < config.seconds && failures < 3);
  const double peak_rss = children_peak_rss_mb();

  rep.check("shard: every --shards 4 run exits 0", failures == 0,
            std::to_string(failures) + " failed");
  rep.check("shard: every repeat merges to the same CSV and cache bytes",
            mismatches == 0, std::to_string(mismatches) + " differ");
  const reference ref = make_reference(config, rep);
  rep.check("shard: merged CSV equals the unsharded reference",
            !ref.csv.empty() && first_csv == ref.csv);
  rep.check("shard: merged cache equals the unsharded reference",
            !ref.cache.empty() && first_cache == ref.cache);
  const double accuracy =
      ref.csv.empty() ? 0.0 : dl_accuracy(engine::result_table::from_csv(ref.csv));
  if (walls_ms.empty()) throw std::runtime_error("no sharded run succeeded");

  rep.note("sharded_runs", std::to_string(walls_ms.size()));
  rep.note("seed", "unused: dl_shard's built-in bench sweep fixes the inputs");
  rep.samples("setup_s", "s", setup_s);
  rep.samples("scenarios_per_s", "1/s", rates);
  rep.value("p50_ms", "ms", percentile(walls_ms, 50));
  rep.value("iqm_ms", "ms", interquartile_mean(walls_ms));
  rep.value("p99_ms", "ms", percentile(walls_ms, 99));
  rep.value("peak_rss_mb", "MiB", peak_rss);
  rep.value("mean_accuracy", "ratio", accuracy);
}

/// What `dl_shard --shards 4` does, done by hand: 4 concurrent `--worker i/4`
/// processes, each timed from spawn to exit, then `--merge` and
/// `--merge-cache`.
void traced_split(const run_config& config, report& rep, const reference& ref,
                  double untraced_s) {
  const fs::path dir = config.workdir;
  const fs::path log = dir / "dl_shard.log";
  const clock_type::time_point start = clock_type::now();
  std::map<pid_t, std::size_t> running;
  for (std::size_t i = 0; i < kShards; ++i) {
    const std::string tag = std::string("w").append(std::to_string(i));
    running[spawn(shard_cmd(config,
                            concat({"--worker",
                                    std::to_string(i) + "/" + std::to_string(kShards),
                                    "--csv", (dir / (tag + ".csv")).string(),
                                    "--cache-file",
                                    (dir / (tag + ".cache")).string()},
                                   sweep_args())),
                  log)] = i;
  }
  std::vector<double> worker_s(kShards, 0.0);
  bool workers_ok = true;
  while (!running.empty()) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    if (pid < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("waitpid failed while reaping shard workers");
    }
    const auto it = running.find(pid);
    if (it == running.end()) continue;
    worker_s[it->second] = seconds_since(start);
    workers_ok = workers_ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    running.erase(it);
  }
  rep.check("trace: every dl_shard worker exits 0", workers_ok);

  std::vector<std::string> merge{"--merge", (dir / "m.csv").string()};
  std::vector<std::string> merge_cache{"--merge-cache",
                                       (dir / "m.cache").string()};
  std::size_t shard_rows = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    const std::string tag = std::string("w").append(std::to_string(i));
    merge.push_back((dir / (tag + ".csv")).string());
    merge_cache.push_back((dir / (tag + ".cache")).string());
    shard_rows += engine::result_table::from_csv(read_file(dir / (tag + ".csv")))
                      .size();
  }
  const clock_type::time_point merge_start = clock_type::now();
  const int merge_rc = run(shard_cmd(config, merge), log);
  const double merge_s = seconds_since(merge_start);
  const clock_type::time_point cache_start = clock_type::now();
  const int cache_rc = run(shard_cmd(config, merge_cache), log);
  const double merge_cache_s = seconds_since(cache_start);
  const double traced_s = seconds_since(start);
  rep.check("trace: --merge and --merge-cache exit 0",
            merge_rc == 0 && cache_rc == 0);

  const std::string merged = read_file(dir / "m.csv");
  rep.check("trace: hand-merged CSV equals the unsharded reference",
            merged == ref.csv);
  rep.check("trace: hand-merged cache equals the unsharded reference",
            read_file(dir / "m.cache") == ref.cache);
  const std::size_t merged_rows = engine::result_table::from_csv(merged).size();
  rep.check("trace: shard rows sum to the merged rows",
            shard_rows == merged_rows,
            std::to_string(shard_rows) + " vs " + std::to_string(merged_rows));

  double slowest = 0.0;
  double sum = 0.0;
  for (const double s : worker_s) {
    slowest = std::max(slowest, s);
    sum += s;
  }
  const double mean_s = sum / static_cast<double>(kShards);
  rep.value("shard.worker_s_max", "s", slowest);
  rep.value("shard.worker_s_mean", "s", mean_s);
  rep.value("shard.imbalance", "ratio", slowest / mean_s);
  rep.value("shard.merge_ms", "ms", 1e3 * merge_s);
  rep.value("shard.merge_cache_ms", "ms", 1e3 * merge_cache_s);
  rep.value("shard.driver_overhead_s", "s",
            untraced_s - (slowest + merge_s + merge_cache_s));
  rep.value("trace.overhead_frac", "ratio", (traced_s - untraced_s) / untraced_s);
}

/// The same sweep in-process through the traced registry: the core,
/// runner and cache layers under batched lanes.
void traced_in_process(const run_config& config, report& rep,
                       const reference& ref) {
  const clock_type::time_point setup = clock_type::now();
  const engine::scenario_context context = make_test_surface();
  rep.value("setup.dataset_ms", "ms", 1e3 * seconds_since(setup));

  recorder rec;
  const engine::model_registry registry = make_traced_registry(rec);
  engine::solve_cache cache;
  const cache_observation seen(cache);
  engine::runner_options options;
  options.threads = kShards;
  options.registry = &registry;
  options.cache = &cache;
  options.on_chunk_start = [&rec](std::size_t chunk) {
    rec.chunk_started(chunk);
  };

  const double start = rec.now();
  const std::vector<engine::scenario> scenarios = engine::expand_sweep(
      make_bench_spec(kRates), context, registry);
  const std::vector<std::vector<std::size_t>> chunks =
      engine::batch_sweep(scenarios, registry, options.batch_width);
  const double expanded = rec.now();
  const engine::sweep_result result =
      engine::run_sweep(context, scenarios, options);
  const double swept = rec.now();
  const std::string csv = result.table.to_csv();
  rep.value("runner.expand_ms", "ms", 1e3 * (expanded - start));
  rep.value("runner.csv_ms", "ms", 1e3 * (rec.now() - swept));
  rep.operations(result.table.size(), 0);
  rep.check("trace: in-process bench sweep CSV equals dl_shard's",
            csv == ref.csv);

  const std::vector<chunk_span> chunk_spans =
      report_runner(rep, rec, expanded, swept, kShards, chunks.size(),
                    calibrate_chunks(scenarios, chunks, registry));
  const std::vector<span> spans = rec.spans();
  report_core(rep, spans);
  std::size_t lanes = 0;
  for (const span& s : spans) lanes += s.lanes;
  rep.check("cache: one trace insert per solved lane",
            seen.trace_keys().size() == lanes);
  report_cache(rep, cache, seen, config.workdir);
  if (!config.trace_out.empty())
    write_chrome_trace(with_chunks(spans, chunk_spans), config.trace_out);
}

void traced(const run_config& config, report& rep) {
  const reference ref = make_reference(config, rep);
  const double untraced_s =
      sharded_run(config, config.workdir / "run.csv", config.workdir / "run.cache");
  rep.operations(kScenarios, untraced_s < 0.0 ? kScenarios : 0);
  rep.check("trace: untraced --shards 4 run exits 0", untraced_s > 0.0);
  if (untraced_s > 0.0) traced_split(config, rep, ref, untraced_s);
  traced_in_process(config, rep, ref);
}

}  // namespace

void run_shard_batched(const run_config& config, report& rep) {
  if (config.trace)
    traced(config, rep);
  else
    untraced(config, rep);
}

}  // namespace perfbench
