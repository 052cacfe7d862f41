// Parallel batch execution of scenario sweeps.
//
// `expand_sweep` turns a declarative sweep_spec into a concrete work
// queue (the capability-aware cross product of its axes); `run_sweep`
// executes the queue on a thread pool and aggregates index-ordered
// results into a result_table.  Every scenario is solved and scored
// independently and deterministically, so the table — and its CSV —
// is identical at any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "engine/diffusion_model.h"
#include "engine/model_registry.h"
#include "engine/result_table.h"
#include "engine/scenario.h"
#include "engine/shard.h"
#include "engine/solve_cache.h"
#include "fit/calibrate.h"

namespace dlm::engine {

/// Lanes per batch chunk when runner_options::batch_width is 0 (auto).
/// Eight covers one or two SIMD vectors of lanes with enough slack to
/// amortize the per-chunk setup, without starving a small pool of chunks.
inline constexpr std::size_t kDefaultBatchWidth = 8;

struct runner_options {
  /// Worker threads; 0 → std::thread::hardware_concurrency.
  std::size_t threads = 0;
  /// Model registry to resolve scenario.model against; null → the
  /// built-in default_registry().
  const model_registry* registry = nullptr;
  /// Also keep every scenario's predicted trace (index-aligned with the
  /// result rows) — needed by convergence studies; off by default to
  /// keep big sweeps lean.
  bool keep_traces = false;
  /// Memoizing solve cache (see engine/solve_cache.h); null → every
  /// solve runs.  Shared across run_sweep calls by the caller: a warm
  /// repeat of a sweep performs zero additional PDE solves, and the
  /// table CSV is byte-identical to the cold run's.
  solve_cache* cache = nullptr;
  /// Box bounds / lattice resolution / refinement cap for "calibrate"
  /// rate specs.  The solver options and fit_rate flag inside are
  /// ignored — they come from each scenario and its spec.
  fit::calibration_options calibration{};
  /// Scenario batching (every batching knob lives here, not in extra
  /// run_sweep parameters): compatible scenarios of a batch-capable
  /// model — same model, slice, scheme, grid, dt and window, and not a
  /// "calibrate" spec — are grouped into chunks of this many lanes, each
  /// advanced in lockstep by one pool worker (see batch_sweep).
  /// 0 → auto (kDefaultBatchWidth); 1 → batching off (pure scalar path);
  /// N → fixed width N.  Results are bitwise identical at any width.
  std::size_t batch_width = 0;
  /// The shard axis (engine/shard.h): run only the batch_sweep chunks
  /// shard_chunks assigns to this shard.  Rows keep their *global* sweep
  /// indices, so the N shard tables of a partition recombine through
  /// engine::merge_tables into a table byte-identical to the unsharded
  /// run.  Default 0/1: the whole sweep, sharding off.
  shard_spec shard{};
  /// Called on the executing pool thread just before each chunk runs,
  /// with the chunk's 0-based position in this run's chunk list.  The
  /// fault-injection harness (engine/fault.h) hangs its crash/hang
  /// hooks here; anything else (progress reporting) works too.  Must be
  /// thread-safe — chunks run concurrently.
  std::function<void(std::size_t)> on_chunk_start;
};

struct sweep_result {
  /// One row per executed scenario.  Unsharded, row i is scenario i; a
  /// sharded run holds only the owned scenarios (ascending), each row
  /// still carrying its global index.
  result_table table;
  /// Present iff runner_options::keep_traces; traces[i] belongs to
  /// table.row(i).
  std::vector<model_trace> traces;
  /// End-to-end wall time of the parallel run (vs table.total_wall_ms(),
  /// the serial sum).
  double wall_ms = 0.0;
};

/// Expands the sweep into scenarios: slices × models × (the axes each
/// model consumes).  Axes a model ignores are collapsed and recorded as
/// canonical "n/a" values, so no duplicate work is enqueued; "calibrate"
/// rate specs additionally collapse to "preset" for rate-using models
/// that do not support calibration (duplicates removed).  Throws on
/// unknown models/slices or empty axes.
[[nodiscard]] std::vector<scenario> expand_sweep(
    const sweep_spec& spec, const scenario_context& context,
    const model_registry& registry = default_registry());

/// The explicit index-stable grouping step between expand_sweep and
/// run_sweep: partitions scenario indices into the chunks run_sweep
/// hands to pool workers.  Invariants (these are what keep the result
/// table — and its CSV — byte-identical to the scalar path regardless of
/// how a sweep interleaved compatible scenarios):
///  * the chunks partition 0..scenarios.size()−1 exactly;
///  * every chunk lists its members in ascending index order;
///  * chunks are ordered by their first member.
/// Scenarios group only when they share model, slice, scheme, grid
/// resolution, dt and time window, the model supports_batch(), and the
/// rate spec is not a "calibrate" form (calibration fits per scenario
/// before solving, so those stay scalar); everything else becomes a
/// chunk of one.  `batch_width` as in runner_options (0 → auto).
[[nodiscard]] std::vector<std::vector<std::size_t>> batch_sweep(
    std::span<const scenario> scenarios,
    const model_registry& registry = default_registry(),
    std::size_t batch_width = 0);

/// Executes the scenarios on a worker pool.  Compatible scenarios of
/// batch-capable models are advanced in lockstep per worker (see
/// batch_sweep and runner_options::batch_width); per-scenario rows,
/// traces and cache entries are bitwise identical either way.  Scenarios whose rate spec
/// is a "calibrate" form are fitted first (see engine/calibration.h) —
/// the fitted parameters land in the row's fit_* columns and the solved
/// scenario records the resolved rate.  The failure of lowest scenario
/// index is rethrown here after the queue drains, wrapped in a
/// std::runtime_error naming the scenario's index, model and slice.
[[nodiscard]] sweep_result run_sweep(const scenario_context& context,
                                     std::span<const scenario> scenarios,
                                     const runner_options& options = {});

/// Convenience: expand + run.
[[nodiscard]] sweep_result run_sweep(const scenario_context& context,
                                     const sweep_spec& spec,
                                     const runner_options& options = {});

}  // namespace dlm::engine
