// Per-layer metrics shared by the traced workloads: the solver kernels
// (from timed_model spans), the solve cache (from its stats, a write
// observer and a replay of the recorded keys) and the scenario runner
// (from on_chunk_start hooks plus solve spans).
#pragma once

#include <cstddef>
#include <filesystem>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "engine/result_table.h"
#include "engine/scenario.h"
#include "engine/solve_cache.h"
#include "trace.h"

namespace perfbench {

/// Every key the cache stored while observed.  Installs itself as the
/// cache's write observer; the destructor uninstalls it.
class cache_observation {
 public:
  explicit cache_observation(dlm::engine::solve_cache& cache);
  ~cache_observation();
  cache_observation(const cache_observation&) = delete;
  cache_observation& operator=(const cache_observation&) = delete;

  [[nodiscard]] std::vector<std::string> trace_keys() const;
  [[nodiscard]] std::vector<std::string> value_keys() const;

 private:
  dlm::engine::solve_cache& cache_;
  mutable std::mutex mutex_;
  std::vector<std::string> trace_keys_;
  std::vector<std::string> value_keys_;
};

/// core.*: solves (lanes), busy seconds, median per-lane solve time per
/// domain family, mean lanes per call and node-steps per busy second.
void report_core(report& rep, const std::vector<span>& spans);

/// cache.*: lookups and hit ratio from stats(), inserts and mean key
/// bytes from the observation, lookup_us from replaying every recorded
/// key against the cache, then save/load time and file size through
/// cache_io in `workdir`.  Call after the observed run has finished.
void report_cache(report& rep, dlm::engine::solve_cache& cache,
                  const cache_observation& seen,
                  const std::filesystem::path& workdir);

/// runner.*: chunk spans of one run_sweep call on `threads` pool threads
/// that ran from wall_start to wall_end (recorder clock).  `calibrate`
/// flags the chunks whose time beyond their solves is calibration.
/// Checks that the hooks saw exactly `expected_chunks` chunks.  Returns
/// the reconstructed chunks.
std::vector<chunk_span> report_runner(report& rep, const recorder& rec,
                                      double wall_start, double wall_end,
                                      std::size_t threads,
                                      std::size_t expected_chunks,
                                      const std::vector<bool>& calibrate);

/// Mean paper Eq. 8 accuracy of the table's "dl" rows (0 without any).
[[nodiscard]] double dl_accuracy(const dlm::engine::result_table& table);

/// The chunks of batch_sweep whose single scenario carries a calibrate
/// rate spec (those the runner fits before solving).
[[nodiscard]] std::vector<bool> calibrate_chunks(
    std::span<const dlm::engine::scenario> scenarios,
    const std::vector<std::vector<std::size_t>>& chunks,
    const dlm::engine::model_registry& registry);

}  // namespace perfbench
