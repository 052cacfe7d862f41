// dlbench: runs one benchmark workload and prints its report as one JSON
// line (metrics with median / quartiles / sample count, output checks,
// operation counts).  perfbench/run.py builds this binary, adds the
// hardware fingerprint and prints the one-line summary.
//
//   dlbench --workload paper_calibrate|shard_batched|serve_mixed
//           [--seed N] [--seconds S] [--trace 0|1] --workdir DIR
//           [--trace-out FILE]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// Every per-layer metric of the traced run, with its unit.  A layer a
/// workload does not exercise reports 0 (e.g. shard.* on serve_mixed).
const char* const kLayerMetrics[][2] = {
    {"core.solves", "count"},
    {"core.busy_s", "s"},
    {"core.solve_ms.line", "ms"},
    {"core.solve_ms.comm", "ms"},
    {"core.solve_ms.grid2d", "ms"},
    {"core.batch_lanes_mean", "count"},
    {"core.node_steps_per_s", "1/s"},
    {"runner.expand_ms", "ms"},
    {"runner.chunks", "count"},
    {"runner.busy_frac", "ratio"},
    {"runner.tail_s", "s"},
    {"runner.chunk_ms_max", "ms"},
    {"runner.calibrate_s", "s"},
    {"runner.csv_ms", "ms"},
    {"cache.lookups", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.inserts", "count"},
    {"cache.key_bytes_mean", "bytes"},
    {"cache.lookup_us", "us"},
    {"cache.save_ms", "ms"},
    {"cache.load_ms", "ms"},
    {"cache.file_bytes", "bytes"},
    {"shard.worker_s_max", "s"},
    {"shard.worker_s_mean", "s"},
    {"shard.imbalance", "ratio"},
    {"shard.merge_ms", "ms"},
    {"shard.merge_cache_ms", "ms"},
    {"shard.driver_overhead_s", "s"},
    {"service.rtt_us.hit", "us"},
    {"service.rtt_us.miss", "us"},
    {"service.self_us.miss", "us"},
    {"service.requests", "count"},
    {"service.dropped", "count"},
    {"service.reply_bytes_mean", "bytes"},
    {"setup.dataset_ms", "ms"},
    {"setup.service_start_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

int usage(const std::string& why) {
  std::fprintf(stderr,
               "dlbench: %s\nusage: dlbench --workload "
               "paper_calibrate|shard_batched|serve_mixed [--seed N] "
               "[--seconds S] [--trace 0|1] --workdir DIR [--trace-out FILE]\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  run_config config;
  config.shard_bin = DLBENCH_SHARD_BIN;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage(arg + " needs a value");
      const std::string value = argv[++i];
      if (arg == "--workload") {
        config.workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (arg == "--workdir") {
        config.workdir = value;
      } else if (arg == "--trace-out") {
        config.trace_out = value;
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (config.workdir.empty()) return usage("--workdir is required");
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    std::filesystem::create_directories(config.workdir);
    report rep;
    if (config.workload == "paper_calibrate")
      run_paper_calibrate(config, rep);
    else if (config.workload == "shard_batched")
      run_shard_batched(config, rep);
    else if (config.workload == "serve_mixed")
      run_serve_mixed(config, rep);
    else
      return usage("unknown workload '" + config.workload + "'");
    if (config.trace)
      for (const auto& [name, unit] : kLayerMetrics)
        if (!rep.has(name)) rep.value(name, unit, 0.0);
    std::printf("%s\n", rep.to_json(config).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dlbench: %s: %s\n", config.workload.c_str(), e.what());
    return 1;
  }
}
