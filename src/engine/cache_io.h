// On-disk persistence for engine::solve_cache.
//
// The cache dies with the process, so every CLI run and CI job re-pays
// every cold solve.  This module gives it a compact versioned binary
// format — magic + format version + a canonical-key index with each
// trace stored as one contiguous row-major blob + per-section checksums
// — so a second process's warm sweep performs zero PDE solves.  Every
// double round-trips through its raw IEEE-754 bits: a trace loaded from
// disk is bitwise identical to the one the writing process solved, so
// cache identity still equals CSV identity across processes.
//
// File layout (all integers little-endian, doubles as little-endian
// IEEE-754 bit patterns; see docs/solve_cache.md for the full diagram):
//
//   header   : magic "DLMCACHE" (8) · format version u32 · section count
//              u32 (always 2)
//   section  : tag u32 (1 = traces, 2 = values) · payload bytes u64 ·
//              FNV-1a-64 checksum of the payload u64 · payload
//   traces   : entry count u64, then per entry: key (u32 length +
//              bytes) · distances (u32 count + i32 each) · times (u32
//              count + f64 each) · effective_dt f64 · predicted blob
//              (count(distances) × count(times) f64, row-major)
//   values   : entry count u64, then per entry: key (u32 length +
//              bytes) · value f64
//
// The loader is adversarial by construction: every read is bounds
// checked, declared counts are validated against the bytes that are
// actually present before anything is allocated, checksums are verified
// before a section is parsed, and nothing is imported into the cache
// until the whole file has parsed cleanly — a corrupt file degrades to
// a clean cold cache with cache_stats::load_rejected counted, never to
// a crash or a partial load.  Keys are exported sorted, so identical
// cache content serializes to identical bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/cache_journal.h"
#include "engine/solve_cache.h"

namespace dlm::engine {

/// Format version written by serialize_cache.  The loader accepts
/// exactly this version: older or newer files are rejected (a format
/// bump is cheap — the cache is a cache — and silent cross-version
/// reinterpretation is how caches corrupt).
/// v2: each trace entry carries its domain label after the key (the
/// core::domain axis); v1 files load as a clean cold cache.
inline constexpr std::uint32_t kCacheFormatVersion = 2;

/// 8-byte file magic.
inline constexpr std::string_view kCacheMagic = "DLMCACHE";

/// FNV-1a 64-bit checksum used for the per-section checksums — exposed
/// so tests can re-seal deliberately corrupted payloads.
[[nodiscard]] std::uint64_t cache_checksum(std::string_view bytes);

// ------------------------------------------------------- entry codecs
//
// The per-entry byte layout of the two snapshot sections, exposed as
// standalone codecs so the cache journal (engine/cache_journal.h) can
// carry the identical bytes per record — one codec, one set of
// corruption tests, no format drift between WAL and snapshot.

/// One trace entry in the trace section's per-entry layout (key ·
/// domain · distances · times · effective_dt · predicted blob).
[[nodiscard]] std::string encode_trace_entry(std::string_view key,
                                             const model_trace& trace);

/// One value entry (key · value f64).
[[nodiscard]] std::string encode_value_entry(std::string_view key,
                                             double value);

/// Parses one trace entry occupying exactly `payload`.  Bounds-checked
/// like the snapshot loader.  Returns an error message, empty on
/// success.
[[nodiscard]] std::string decode_trace_entry(std::string_view payload,
                                             std::string& key,
                                             model_trace& trace);

[[nodiscard]] std::string decode_value_entry(std::string_view payload,
                                             std::string& key, double& value);

/// Outcome of a load attempt.
struct cache_load_result {
  /// True iff the file parsed cleanly and every entry was imported.
  bool loaded = false;
  /// True when the file simply does not exist — a normal cold start,
  /// not a rejection (load_rejected is not counted).
  bool file_missing = false;
  std::size_t traces = 0;  ///< trace entries imported
  std::size_t values = 0;  ///< value entries imported
  /// Why the file was rejected; empty on success or a missing file.
  std::string error;
};

/// Serializes the cache content (key-sorted) to the format above.
[[nodiscard]] std::string serialize_cache(const solve_cache& cache);

/// Parses `bytes` and imports every entry into `cache` (first insert
/// wins, the LRU cap applies).  All-or-nothing: on any defect the cache
/// is left exactly as it was, load_rejected is counted, and the result
/// names the defect.
cache_load_result deserialize_cache(solve_cache& cache,
                                    std::string_view bytes);

/// Writes the cache to `path` atomically (temp file + rename), so a
/// reader never observes a half-written cache.  Throws
/// std::runtime_error on I/O failure.
void save_cache(const solve_cache& cache, const std::filesystem::path& path);

/// Reads `path` and imports it into `cache` (see deserialize_cache).  A
/// missing file reports file_missing without counting a rejection.
cache_load_result load_cache(solve_cache& cache,
                             const std::filesystem::path& path);

/// Checks that save_cache(path) would succeed *now*, by opening (and, if
/// newly created, removing) the same "<path>.tmp" file save_cache
/// writes.  Returns an empty string when writable, otherwise a
/// diagnostic naming the path — so a tool can refuse a doomed
/// --cache-file at startup instead of discovering the unwritable
/// directory after a long sweep.
[[nodiscard]] std::string probe_cache_writable(
    const std::filesystem::path& path);

/// Outcome of merge_cache_files.
struct cache_merge_result {
  std::size_t merged_traces = 0;  ///< trace entries newly adopted
  std::size_t merged_values = 0;  ///< value entries newly adopted
  /// Entries present in more than one input with bitwise-identical
  /// payloads — the expected overlap between shards of one sweep.
  std::size_t duplicates = 0;
  /// Same-key different-bits collisions (first input wins; see
  /// cache_stats::merge_conflicts).
  std::size_t conflicts = 0;
  /// Per-input load outcomes, in input order.
  std::vector<cache_load_result> loads;
};

/// Merges the cache files of N sweep shards into `into`, in input
/// order: every file is loaded and verified *first* (checksums, bounds —
/// the usual adversarial loader), then entries are merged through
/// solve_cache::merge_trace/merge_value with canonical-key dedup and
/// bitwise conflict detection.  All-or-nothing across files: a missing
/// or rejected input throws std::runtime_error naming it, with `into`
/// untouched.  Because shard caches hold exactly the entries their
/// shard's scenarios produced — under canonical keys, serialized
/// key-sorted — merging every shard of a partition reproduces the
/// unsharded run's cache file byte for byte.
cache_merge_result merge_cache_files(
    solve_cache& into, std::span<const std::filesystem::path> paths);

/// Journal configuration for persistent_cache (see
/// engine/cache_journal.h and docs/robustness.md).
struct journal_options {
  /// Write-ahead journal every winning cache insert to "<path>.wal"
  /// beside the snapshot, replayed over the snapshot on the next start
  /// — a killed process loses at most the in-flight record instead of
  /// every solve since startup.
  bool enabled = false;
  /// Auto-checkpoint (snapshot save + WAL reset) once the WAL exceeds
  /// this many bytes; 0 disables auto-compaction (flush() and the
  /// destructor still compact).
  std::uint64_t compact_bytes = 4ull << 20;
  /// fsync per record (cache_journal::options::fsync_each).
  bool fsync_each = false;
  /// Fault-injection passthrough (engine/fault.h):
  /// fault_plan::torn_write_record.
  std::optional<std::uint64_t> torn_write_record;
};

/// Load-on-construction / save-on-destruction wrapper: the wiring the
/// sweep runner examples and tools use for `--cache-file`.  The
/// destructor swallows save failures (a best-effort flush must not
/// throw out of scope exit) — call flush() directly when the caller
/// wants the error.  The constructor probes writability up front
/// (probe_cache_writable) and reports the problem on stderr *and*
/// through write_error(), so callers can exit nonzero immediately
/// instead of silently losing the save-on-exit after a long sweep.
///
/// With journal_options::enabled the constructor additionally replays
/// "<path>.wal" over the loaded snapshot and installs a cache write
/// observer that appends every winning insert to the WAL as it
/// happens; flush() becomes a checkpoint (snapshot + WAL reset).
class persistent_cache {
 public:
  explicit persistent_cache(std::filesystem::path path,
                            std::size_t max_entries = 0,
                            journal_options journal = {});
  ~persistent_cache();
  persistent_cache(const persistent_cache&) = delete;
  persistent_cache& operator=(const persistent_cache&) = delete;

  [[nodiscard]] solve_cache& cache() noexcept { return cache_; }
  [[nodiscard]] const solve_cache& cache() const noexcept { return cache_; }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  /// What the constructor's load saw.
  [[nodiscard]] const cache_load_result& startup_load() const noexcept {
    return load_;
  }
  /// What the constructor's WAL replay saw (all-defaults when the
  /// journal is disabled).
  [[nodiscard]] const journal_replay_result& startup_replay() const noexcept {
    return replay_;
  }
  /// The live journal, or null when disabled (or when opening the WAL
  /// failed — reported through write_error()).
  [[nodiscard]] cache_journal* journal() noexcept { return journal_.get(); }

  /// Why the constructor's writability probe (or WAL open) failed;
  /// empty when the cache file is writable.  Callers treating
  /// --cache-file as a contract (not best-effort) should check this
  /// and exit nonzero.
  [[nodiscard]] const std::string& write_error() const noexcept {
    return write_error_;
  }

  /// Saves now — a plain snapshot save, or a journal checkpoint when
  /// journaling.  Throws std::runtime_error on I/O failure.
  void flush();

  /// The final save: flush(), then stop journaling and disarm the
  /// destructor's save, so later inserts stay in memory only and the
  /// file is not rewritten.  For owners whose shutdown is the save
  /// point (dl_service::stop).  Throws like flush(); the cache stays
  /// readable either way.
  void close();

 private:
  std::filesystem::path path_;
  solve_cache cache_;
  cache_load_result load_;
  journal_replay_result replay_;
  std::unique_ptr<cache_journal> journal_;
  journal_options journal_options_;
  std::string write_error_;
  bool closed_ = false;
};

/// The WAL path persistent_cache uses for a given snapshot path.
[[nodiscard]] std::filesystem::path cache_journal_path(
    const std::filesystem::path& snapshot_path);

}  // namespace dlm::engine
