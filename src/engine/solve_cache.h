// Memoizing solve cache keyed on canonical scenario identity.
//
// A sweep frequently re-solves identical work: the same scenario repeated
// across sweeps, the reference scenario of an ablation, and — dominating
// everything — the hundreds of PDE solves one calibration fit spends on
// its lattice and Nelder–Mead probes.  The cache stores both kinds of
// payload under one canonical string key:
//
//  * traces  — the model_trace of a full scenario solve, keyed by
//              `scenario_cache_key` (slice name + content fingerprint +
//              model + scheme + grid + dt + resolved rate + window + seed
//              + parameter overrides: the fields the result-table CSV
//              records, so cache identity == CSV identity, plus the
//              fingerprint guarding against name collisions when one
//              cache is shared across contexts);
//  * values  — the numbers of calibration fit records: one fit is n + 2
//              values (its n fitted coordinates, its SSE and its
//              evaluation count) under "<fit key>|0" .. "|n+1", where the
//              fit key names the slice, solver configuration, fit family
//              and window, and the search settings
//              (engine::calibrate_scenarios).  Probes are not memoized.
//
// Lookups are thread-safe; hit/miss counts are tracked for the stats a
// sweep or the service reports.  The cache is unbounded by default;
// constructing it with `max_entries > 0` caps the combined trace + value
// count with least-recently-used eviction (finds refresh recency,
// evictions are counted in the stats).
//
// Entry layout: each key is stored once, in its hash-map node.  The
// recency list is threaded through the entries themselves (prev/next
// links plus a pointer to the node's key), so an insert allocates the map
// node and nothing else; the inserting methods take the key by value and
// move it into the node.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/diffusion_model.h"
#include "engine/scenario.h"

namespace dlm::engine {

/// Cumulative lookup statistics (traces + values combined).
struct cache_stats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  /// Entries dropped by the LRU cap (0 while unbounded).
  std::size_t evictions = 0;
  /// Rejected on-disk load attempts (bad magic / version / checksum /
  /// truncation — see engine/cache_io.h).  Every rejection leaves the
  /// cache exactly as it was: no partial load, just this counter.
  std::size_t load_rejected = 0;
  /// Entries inserted by merge_trace/merge_value (shard-cache merging —
  /// see merge_cache_files in engine/cache_io.h).  Duplicates with a
  /// bitwise-identical payload move neither counter.
  std::size_t merged_entries = 0;
  /// Merge collisions where the same canonical key carried a bitwise
  /// *different* payload.  Always 0 for shards of one deterministic
  /// sweep; nonzero means the merged caches came from diverging builds
  /// or inputs (the first-inserted payload is kept).
  std::size_t merge_conflicts = 0;
};

class solve_cache {
 public:
  /// Unbounded cache (the pre-cap behaviour).
  solve_cache() = default;
  /// Caps the combined number of stored traces + values; the least
  /// recently used entry is evicted when an insert overflows the cap.
  /// 0 means unbounded.
  explicit solve_cache(std::size_t max_entries) : max_entries_(max_entries) {}
  solve_cache(const solve_cache&) = delete;
  solve_cache& operator=(const solve_cache&) = delete;

  /// Returns the cached trace or null (counting a hit/miss).
  [[nodiscard]] std::shared_ptr<const model_trace> find_trace(
      const std::string& key);

  /// Stores a trace under `key`.  A concurrent duplicate insert is benign:
  /// the first stored trace wins and later ones are dropped (both were
  /// computed from identical inputs).  Returns the trace the key held
  /// once this insert ran — this one, or the first — even when the LRU
  /// cap has already evicted it again.
  std::shared_ptr<const model_trace> store_trace(std::string key,
                                                 model_trace trace);

  /// Returns the cached scalar or nullopt (counting a hit/miss).
  [[nodiscard]] std::optional<double> find_value(const std::string& key);

  /// Stores a scalar under `key` (first insert wins, as for traces).
  void store_value(std::string key, double value);

  [[nodiscard]] cache_stats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t max_entries() const noexcept {
    return max_entries_;
  }
  void clear();

  /// One exported trace entry.  The shared_ptr aliases the live cache
  /// entry, so snapshotting copies keys but no trace data.
  struct trace_export {
    std::string key;
    std::shared_ptr<const model_trace> trace;
  };
  struct value_export {
    std::string key;
    double value = 0.0;
  };

  /// Key-sorted snapshots of the cache content for serialization
  /// (engine/cache_io.h): sorting makes identical content produce
  /// identical file bytes regardless of insertion order.
  [[nodiscard]] std::vector<trace_export> export_traces() const;
  [[nodiscard]] std::vector<value_export> export_values() const;

  /// Bulk-inserts a loaded entry.  Same semantics as the store_*
  /// methods (first insert wins, the LRU cap applies) but takes the
  /// shared trace directly — loading a file is not a hit or a miss, so
  /// no lookup statistic moves.
  void import_trace(std::string key, std::shared_ptr<const model_trace> trace);
  void import_value(std::string key, double value);

  /// Counts one rejected load attempt (see cache_stats::load_rejected);
  /// called by the cache_io loader, never by the cache itself.
  void count_load_rejected();

  /// Outcome of merging one entry from another cache.
  enum class merge_outcome {
    inserted,   ///< key was new: entry adopted, merged_entries counted
    duplicate,  ///< key present with a bitwise-identical payload: no-op
    conflict    ///< key present with a different payload: first insert
                ///< kept, merge_conflicts counted
  };

  /// Inserts an entry from another shard's cache.  Unlike import_trace,
  /// the merge distinguishes a benign duplicate (both shards solved the
  /// same scenario — payloads bitwise equal, by the determinism
  /// contract) from a conflict (same key, different bits), and counts
  /// merged_entries / merge_conflicts accordingly.  The LRU cap applies
  /// to inserted entries as usual.
  merge_outcome merge_trace(std::string key,
                            std::shared_ptr<const model_trace> trace);
  merge_outcome merge_value(std::string key, double value);

  /// Write observation hook — the wiring the cache journal
  /// (engine/cache_journal.h) uses to append every winning insert as it
  /// happens.  Called once per *new* entry (store/import/merge alike;
  /// duplicates and conflicts do not fire), with exactly one of `trace`
  /// / `value` non-null.  Invoked *outside* the cache mutex, so the
  /// observer may call back into the cache (e.g. a journal checkpoint
  /// serializing it) without deadlocking; consequently two concurrent
  /// inserts may observe in either order — the journal replays through
  /// first-insert-wins imports, so order does not matter.  Pass an
  /// empty function to uninstall.
  using write_observer = std::function<void(
      const std::string& key, const model_trace* trace, const double* value)>;
  void set_write_observer(write_observer observer);

 private:
  enum class entry_kind { trace, value };
  /// The recency-list node embedded in every entry: most recently used
  /// at head_.next.  `key` points at the owning map node's key, so
  /// eviction finds that node without a second copy of the key.
  struct lru_links {
    lru_links* prev = nullptr;
    lru_links* next = nullptr;
    const std::string* key = nullptr;
    entry_kind kind = entry_kind::value;
  };
  template <class Payload>
  struct entry : lru_links {
    Payload payload{};
  };
  using trace_map =
      std::unordered_map<std::string,
                         entry<std::shared_ptr<const model_trace>>>;
  using value_map = std::unordered_map<std::string, entry<double>>;

  /// The one insert behind store/import (merging = false: a present key
  /// is a silent duplicate) and merge (merging = true: a present key is
  /// compared bitwise and counted).  A non-null `held` receives the
  /// payload the key holds after the insert (first insert wins).
  template <class Map, class Payload>
  merge_outcome insert(Map& map, std::string key, Payload payload,
                       bool merging, Payload* held = nullptr);
  /// Recency-list edits.  Caller must hold the mutex.
  void link_front(lru_links& e);
  static void unlink(lru_links& e);
  /// Drops least-recently-used entries until the cap holds.  Caller must
  /// hold the mutex.
  void evict_overflow();

  mutable std::mutex mutex_;
  std::size_t max_entries_ = 0;
  lru_links head_{&head_, &head_};  ///< circular list sentinel
  trace_map traces_;
  value_map values_;
  cache_stats stats_;
  /// Swapped atomically under the mutex, invoked outside it: an insert
  /// snapshots the shared_ptr while locked and calls through it after
  /// unlocking, so set_write_observer never races a running callback's
  /// destruction.
  std::shared_ptr<const write_observer> observer_;
};

/// Resolves a growth-rate spec to its canonical form: "preset" names the
/// paper rate of the slice's metric, so a hop-slice "preset" and an
/// explicit "paper_hops" share one cache entry.  The base of a
/// "spatial:<base>|..." spec and every entry of a "per-hop:..." spec are
/// canonicalized the same way.  Calibrate specs and every other form are
/// already canonical and returned unchanged.
[[nodiscard]] std::string resolve_rate_spec(const std::string& spec,
                                            social::distance_metric metric);

/// Canonical identity of one scenario solve — the axes `model` consumes
/// (the collapsed ones render as their "n/a" values, mirroring the CSV)
/// plus the (d, K) overrides, so a calibrated solve never collides with a
/// plain solve that happens to share the same resolved rate.
[[nodiscard]] std::string scenario_cache_key(const scenario& sc,
                                             const dataset_slice& slice,
                                             const diffusion_model& model);

}  // namespace dlm::engine
