// Shared plumbing of the benchmark workloads: the run configuration, the
// result report (metrics, output checks, operation counts), child
// processes, files and memory readings.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "engine/scenario.h"
#include "stats.h"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Digg test-scale datasets per run of paper_calibrate and serve_mixed.
/// One dataset's calibration cost and accuracy move with its seed by
/// about 10%; averaging several keeps a run's figures representative.
inline constexpr std::size_t kDatasets = 5;

/// Seed of the run's i-th dataset: the run seed itself, then seeds
/// derived from it with splitmix64.
[[nodiscard]] std::uint64_t dataset_seed(std::uint64_t seed, std::size_t i);

/// The Digg test-scale dataset for `seed` (digg::make_dataset +
/// scenario_context::from_dataset: 4 stories × hops/interests).
[[nodiscard]] dlm::engine::scenario_context make_digg_context(std::uint64_t seed);

/// What one benchmark invocation runs.
struct run_config {
  std::string workload;
  std::uint64_t seed = 20090601;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for sockets, CSVs, caches and child logs.
  std::filesystem::path workdir;
  /// The dl_shard binary built beside this one.
  std::string shard_bin;
  /// Where the traced run writes its Chrome trace (empty: nowhere).
  std::string trace_out;
};

/// The result of one invocation: metrics (each a sample list summarized
/// by median and quartiles), output checks and operation counts.
class report {
 public:
  /// Records one output check; a failed check counts in fail_frac.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  /// Counts attempted / failed operations (sweeps, shard runs, requests).
  void operations(std::size_t attempted, std::size_t failed);
  /// Sets a metric from its in-run samples (reported value: the median).
  void samples(const std::string& name, const std::string& unit,
               std::vector<double> values);
  /// Sets a metric measured once.
  void value(const std::string& name, const std::string& unit, double v);
  void note(const std::string& key, const std::string& text);

  [[nodiscard]] bool has(const std::string& name) const {
    return metrics_.count(name) != 0;
  }
  /// The reported value (median) of a metric; throws when absent.
  [[nodiscard]] double value_of(const std::string& name) const {
    return metrics_.at(name).stats.median;
  }
  [[nodiscard]] std::size_t attempted() const;
  [[nodiscard]] std::size_t failed() const;
  /// One-line JSON: correct / attempted / failed / fail_frac, every check
  /// and every metric with value, unit, median, q1, q3 and n.
  [[nodiscard]] std::string to_json(const run_config& config) const;

 private:
  struct metric {
    std::string unit;
    summary stats;
  };
  struct check_result {
    std::string name;
    bool ok = true;
    std::string detail;
  };
  std::map<std::string, metric> metrics_;
  std::vector<check_result> checks_;
  std::map<std::string, std::string> notes_;
  std::size_t ops_attempted_ = 0;
  std::size_t ops_failed_ = 0;
};

// ------------------------------------------------------------- processes

/// Starts `argv` with stdout appended to `log` (stderr inherited) and
/// returns its pid.  Throws std::runtime_error when the spawn fails.
pid_t spawn(const std::vector<std::string>& argv,
            const std::filesystem::path& log);
/// Waits for `pid`; returns its exit code, or 128 + signal.
int wait_exit(pid_t pid);
/// spawn + wait_exit.
int run(const std::vector<std::string>& argv, const std::filesystem::path& log);

// ----------------------------------------------------------- files, memory

[[nodiscard]] std::string read_file(const std::filesystem::path& path);
/// Peak resident set of this process, in MiB.
[[nodiscard]] double self_peak_rss_mb();
/// Largest peak resident set among waited-for descendants, in MiB.
[[nodiscard]] double children_peak_rss_mb();
/// Formats with %.17g (every digit, so repeated runs differ honestly).
[[nodiscard]] std::string full(double v);

}  // namespace perfbench
