// Aggregated sweep results: one row per scenario, CSV in and out.
//
// Rows carry the full scenario description (so a CSV line alone
// reproduces the run), the accuracy score, the calibration outcome when
// the scenario's rate spec was a "calibrate" form, and the wall time.
// CSV export omits timing by default: two runs of the same sweep — at
// any thread count, against a cold or a warm solve cache — must produce
// byte-identical CSV, and timing is the nondeterministic column.  String
// fields are quoted RFC-4180 style (comma / quote / CR / LF trigger
// quoting, embedded quotes double), so comma-bearing rate specs like
// "decay:1.4,1.5,0.25" — the exact form calibration emits — round-trip
// exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dlm::engine {

/// One scored scenario.
struct result_row {
  std::size_t index = 0;      ///< position in the expanded sweep
  std::string model;
  std::string slice;          ///< slice name, e.g. "s1/hops"
  std::string story;
  std::string metric;         ///< "friendship_hops" / "shared_interests"
  std::string scheme;         ///< DL scheme, "-" when not applicable
  std::size_t points_per_unit = 0;  ///< 0 when not applicable
  double dt = 0.0;            ///< 0 when not applicable
  std::string rate;           ///< requested rate spec, "-" when n/a
  /// The concrete rate the model ran with: the canonical form of `rate`
  /// ("preset" resolves to the metric's paper rate) or, for calibrate
  /// specs, the fitted "decay:<a>,<b>,<c>".  "-" when the model has no
  /// rate axis.
  std::string resolved_rate = "-";
  /// Canonical label of the domain the model solved on (core::domain).
  /// "line" for every model without a domain axis.  Emitted as a CSV
  /// column only when some row is non-line, so line-only sweeps keep
  /// their historical byte-exact CSV.
  std::string domain = "line";
  double t0 = 0.0;
  double t_end = 0.0;
  std::size_t cells = 0;      ///< scored (distance, hour) cells
  double accuracy = 0.0;      ///< mean prediction accuracy over cells
  // Calibration outcome — all zero for rows without a calibrate spec.
  double fit_d = 0.0;         ///< fitted diffusion rate
  double fit_k = 0.0;         ///< fitted carrying capacity
  double fit_a = 0.0;         ///< fitted rate amplitude (0 if rate kept)
  double fit_b = 0.0;         ///< fitted rate decay (0 if rate kept)
  double fit_c = 0.0;         ///< fitted rate floor (0 if rate kept)
  /// Fitted per-group rate multipliers of a "calibrate-spatial" row
  /// (paper §V); empty otherwise.  Rendered in CSV as one comma-joined,
  /// RFC-4180-quoted field.
  std::vector<double> fit_m;
  double fit_sse = 0.0;       ///< objective at the optimum
  std::size_t fit_evals = 0;  ///< objective evaluations (deterministic)
  /// Wall time of the scenario: solve + scoring, plus the whole
  /// calibration fit for calibrate rows (which dominates it there).
  double wall_ms = 0.0;

  /// Equality over everything except wall_ms (the nondeterministic
  /// field).
  [[nodiscard]] bool same_result(const result_row& other) const;
};

/// Controls CSV rendering.
struct csv_options {
  bool include_timing = false;  ///< append the wall_ms column
};

class result_table {
 public:
  result_table() = default;
  explicit result_table(std::vector<result_row> rows);

  [[nodiscard]] const std::vector<result_row>& rows() const noexcept {
    return rows_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }
  [[nodiscard]] const result_row& row(std::size_t i) const;

  /// The row with the highest accuracy (ties: lowest index).
  /// Throws std::out_of_range on an empty table.
  [[nodiscard]] const result_row& best() const;

  /// Sum of per-row wall times (the serial cost of the sweep).
  [[nodiscard]] double total_wall_ms() const;

  /// Deterministic CSV: header line + one line per row in index order.
  /// Doubles are printed with %.17g and string fields are RFC-4180
  /// quoted, so from_csv round-trips exactly.
  [[nodiscard]] std::string to_csv(const csv_options& options = {}) const;

  /// Parses CSV produced by to_csv (any column set).  Throws
  /// std::invalid_argument on an unknown header or a malformed line.
  [[nodiscard]] static result_table from_csv(std::string_view csv);

  /// Column-aligned human-readable rendering (accuracy as a percentage,
  /// calibration SSE/evaluations and timing included).
  [[nodiscard]] std::string to_text() const;

 private:
  std::vector<result_row> rows_;
};

/// Outcome of merge_tables_partial.
struct partial_merge {
  /// The completed rows, ordered by global scenario index.  Each row's
  /// CSV line is byte-identical to the same row of the unsharded run
  /// (rows render independently, so a missing sibling changes nothing).
  result_table table;
  /// Global scenario indices with no row in any input shard, ascending
  /// — the machine-readable gap a degraded merge must report (the
  /// dl_shard --allow-partial manifest).  Empty iff the shards form an
  /// exact partition.
  std::vector<std::size_t> missing;
};

/// Recombines the per-shard tables of one partitioned sweep
/// (engine/shard.h) of `total` scenarios: rows are concatenated and
/// ordered by their global scenario index, so each row's CSV and text
/// rendering is byte-identical to the single-process run's — regardless
/// of shard count or the order the shard tables are passed in.  Gaps are
/// *reported* (the surviving shards of a dl_shard --allow-partial run);
/// a duplicated index or an index >= total throws std::invalid_argument
/// — those are corruption, not degradation.
[[nodiscard]] partial_merge merge_tables_partial(
    std::span<const result_table> shards, std::size_t total);

/// merge_tables_partial over a sweep that ends at the highest index
/// present, requiring an exact partition: additionally throws
/// std::invalid_argument when an index below it is missing (a dropped or
/// truncated shard CSV must not merge into a silently smaller table).
[[nodiscard]] result_table merge_tables(std::span<const result_table> shards);

}  // namespace dlm::engine
