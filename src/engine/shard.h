// The shard axis: partitioning one deterministic sweep across processes.
//
// Scenario expansion (expand_sweep) is already a deterministic indexed
// list and batch_sweep groups it into index-stable chunks; sharding
// simply assigns every chunk to exactly one of N shards.  Each shard
// process runs only its chunks — with global scenario indices preserved
// in its result_table rows — so N shard tables recombine
// (engine::merge_tables) into a table whose CSV is byte-identical to
// the unsharded run, and N shard cache files union (merge_cache_files)
// into the unsharded run's cache file bytes.
//
// The partition is **batch-chunk-aligned**: shards own whole batch_sweep
// chunks, never split ones, so the lockstep grouping inside a shard is
// exactly the grouping the unsharded run would have used and per-lane
// traces stay bitwise identical.
//
// Chunks are assigned longest-processing-time-first (LPT) over a static
// per-chunk cost, the sum of scenario_cost over its lanes: chunks sorted
// by cost, descending (ties: lower chunk index first), each handed to
// the currently least-loaded shard (ties: lower shard index).  The
// heaviest shard carries at most total/N plus one chunk's cost, and
// with at least N chunks every shard owns one.
//
// Every worker process computes the partition on its own, so the cost
// is a pure integer function of the expanded scenario list — no timing,
// no floating-point sums whose order could differ — and every chunk is
// covered exactly once, so the merged output is byte-identical to the
// unsharded run's.
//
// This module only partitions; where a shard executes is the model
// registry's business.  Every shard runs run_sweep with
// runner_options::shard — a local one over the built-in registry, a
// remote one over engine::remote_registry (engine/service.h), whose
// models solve and calibrate on a resident dl_serve server but answer
// every capability query from the local model.  batch_sweep therefore
// forms the same chunks and this partition assigns them the same way on
// either side, so local and remote shards of one sweep merge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/scenario.h"

namespace dlm::engine {

/// One shard of an N-way sweep partition.  The default (0 of 1) owns
/// everything — sharding off.
struct shard_spec {
  std::size_t index = 0;
  std::size_t count = 1;

  /// True when this spec is the whole sweep (no partitioning).
  [[nodiscard]] bool is_all() const noexcept { return count <= 1; }

  /// Throws std::invalid_argument unless 0 <= index < count.
  void validate() const;

  /// Canonical "i/N" rendering; parse_shard_spec(label()) == *this.
  [[nodiscard]] std::string label() const;

  bool operator==(const shard_spec&) const = default;
};

/// The accepted form of a textual shard spec — appended verbatim to
/// every parse_shard_spec rejection.
[[nodiscard]] const std::string& shard_spec_grammar();

/// Parses "i/N" (0-based shard index, 0 <= i < N).  Rejections follow
/// the make_rate/make_domain style: the reason, the offending token's
/// 1-based character position, the spec verbatim, and the grammar above.
[[nodiscard]] shard_spec parse_shard_spec(const std::string& spec);

/// Static work estimate of one scenario for the shard partition: grid
/// nodes × time steps, where nodes = points_per_unit ×
/// core::domain::blocks(points_per_unit) and steps = ⌈(t_end − t0)/dt⌉
/// (1 when dt is not positive), times a flat 300 solves for every
/// "calibrate" rate spec.  A model without a grid (points_per_unit 0, as
/// expand_sweep records it) costs 1; every cost is at least 1.
[[nodiscard]] std::uint64_t scenario_cost(const scenario& sc);

/// Selects the batch_sweep chunks `shard` owns, in ascending chunk order
/// with content untouched.  `scenarios` is the list the chunks index
/// into; the partition costs each chunk from it.  Across shards 0..N−1
/// every chunk is returned exactly once; shard 0 of 1 returns `chunks`
/// unchanged.  Throws std::invalid_argument when a chunk member lies
/// outside `scenarios`.
[[nodiscard]] std::vector<std::vector<std::size_t>> shard_chunks(
    const std::vector<std::vector<std::size_t>>& chunks,
    std::span<const scenario> scenarios, const shard_spec& shard);

}  // namespace dlm::engine
