#include "engine/result_table.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <utility>

#include "engine/format.h"
#include "eval/table.h"

namespace dlm::engine {
namespace {

const std::vector<std::string>& base_columns() {
  static const std::vector<std::string> columns{
      "index",  "model", "slice", "story",    "metric",  "scheme",
      "points_per_unit", "dt",    "rate",     "resolved_rate", "t0",
      "t_end",  "cells", "accuracy", "fit_d", "fit_k",   "fit_a",
      "fit_b",  "fit_c", "fit_m", "fit_sse",  "fit_evals"};
  return columns;
}

constexpr std::string_view kTimingColumn = "wall_ms";
/// Emitted right after the base columns, but only when some row solved a
/// non-line domain — line-only sweeps keep their historical byte-exact
/// CSV (and existing files stay parseable).
constexpr std::string_view kDomainColumn = "domain";

/// RFC-4180 quoting: quote when the field contains a comma, a quote or a
/// line break; embedded quotes double.  Everything else passes through,
/// so quoting is canonical and round-trips byte-identically.
std::string csv_field(std::string_view field) {
  if (field.find_first_of(",\"\r\n") == std::string_view::npos)
    return std::string(field);
  std::string quoted = "\"";
  for (const char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

/// One-pass RFC-4180 reader: records of fields, quote-aware (embedded
/// commas, doubled quotes and line breaks inside quoted fields).  Blank
/// records (trailing newline, empty lines) are dropped.
std::vector<std::vector<std::string>> parse_csv(std::string_view csv) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  const auto end_record = [&] {
    fields.push_back(std::move(current));
    current.clear();
    if (fields.size() > 1 || !fields.front().empty())
      records.push_back(std::move(fields));
    fields.clear();
  };
  for (std::size_t i = 0; i < csv.size(); ++i) {
    const char c = csv[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < csv.size() && csv[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\n') {
      end_record();
    } else if (c != '\r') {
      current += c;
    }
  }
  if (in_quotes)
    throw std::invalid_argument("result_table: unterminated quote in CSV");
  if (!current.empty() || !fields.empty()) end_record();
  return records;
}

double parse_csv_double(const std::string& field) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc{} || ptr != field.data() + field.size())
    throw std::invalid_argument("result_table: bad number '" + field + "'");
  return value;
}

std::vector<double> parse_multipliers(const std::string& field) {
  std::vector<double> out;
  if (field.empty()) return out;
  for (const std::string& piece : split_keep_empty(field, ','))
    out.push_back(parse_csv_double(piece));
  return out;
}

std::size_t parse_csv_size(const std::string& field) {
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc{} || ptr != field.data() + field.size())
    throw std::invalid_argument("result_table: bad count '" + field + "'");
  return value;
}

std::string join_fields(const std::vector<std::string>& fields) {
  std::string joined;
  for (const std::string& field : fields) {
    if (!joined.empty()) joined += ',';
    joined += field;
  }
  return joined;
}

}  // namespace

bool result_row::same_result(const result_row& other) const {
  return index == other.index && model == other.model &&
         slice == other.slice && story == other.story &&
         metric == other.metric && scheme == other.scheme &&
         points_per_unit == other.points_per_unit && dt == other.dt &&
         rate == other.rate && resolved_rate == other.resolved_rate &&
         t0 == other.t0 && t_end == other.t_end && cells == other.cells &&
         accuracy == other.accuracy && fit_d == other.fit_d &&
         fit_k == other.fit_k && fit_a == other.fit_a &&
         fit_b == other.fit_b && fit_c == other.fit_c &&
         fit_m == other.fit_m && fit_sse == other.fit_sse &&
         fit_evals == other.fit_evals && domain == other.domain;
}

result_table::result_table(std::vector<result_row> rows)
    : rows_(std::move(rows)) {}

const result_row& result_table::row(std::size_t i) const {
  if (i >= rows_.size())
    throw std::out_of_range("result_table: row index out of range");
  return rows_[i];
}

const result_row& result_table::best() const {
  if (rows_.empty()) throw std::out_of_range("result_table: empty table");
  const auto it = std::max_element(
      rows_.begin(), rows_.end(), [](const result_row& a, const result_row& b) {
        return a.accuracy < b.accuracy;
      });
  return *it;
}

double result_table::total_wall_ms() const {
  double total = 0.0;
  for (const result_row& r : rows_) total += r.wall_ms;
  return total;
}

std::string result_table::to_csv(const csv_options& options) const {
  const bool with_domain =
      std::any_of(rows_.begin(), rows_.end(),
                  [](const result_row& r) { return r.domain != "line"; });
  std::string out;
  for (const std::string& column : base_columns()) {
    if (!out.empty()) out += ',';
    out += column;
  }
  if (with_domain) {
    out += ',';
    out += kDomainColumn;
  }
  if (options.include_timing) {
    out += ',';
    out += kTimingColumn;
  }
  out += '\n';
  for (const result_row& r : rows_) {
    out += std::to_string(r.index);
    out += ',' + csv_field(r.model) + ',' + csv_field(r.slice) + ',' +
           csv_field(r.story) + ',' + csv_field(r.metric) + ',' +
           csv_field(r.scheme);
    out += ',' + std::to_string(r.points_per_unit);
    out += ',' + format_full_precision(r.dt);
    out += ',' + csv_field(r.rate);
    out += ',' + csv_field(r.resolved_rate);
    out += ',' + format_full_precision(r.t0);
    out += ',' + format_full_precision(r.t_end);
    out += ',' + std::to_string(r.cells);
    out += ',' + format_full_precision(r.accuracy);
    out += ',' + format_full_precision(r.fit_d);
    out += ',' + format_full_precision(r.fit_k);
    out += ',' + format_full_precision(r.fit_a);
    out += ',' + format_full_precision(r.fit_b);
    out += ',' + format_full_precision(r.fit_c);
    out += ',' + csv_field(join_full_precision(r.fit_m));
    out += ',' + format_full_precision(r.fit_sse);
    out += ',' + std::to_string(r.fit_evals);
    if (with_domain) out += ',' + csv_field(r.domain);
    if (options.include_timing) out += ',' + format_full_precision(r.wall_ms);
    out += '\n';
  }
  return out;
}

result_table result_table::from_csv(std::string_view csv) {
  const std::vector<std::vector<std::string>> records = parse_csv(csv);
  if (records.empty())
    throw std::invalid_argument("result_table: empty CSV");

  // Header: the base columns, optionally followed by the domain and/or
  // the timing column.
  const std::vector<std::string>& base = base_columns();
  const std::vector<std::string>& header = records.front();
  const auto bad_header = [&] {
    return std::invalid_argument("result_table: unrecognized CSV header '" +
                                 join_fields(header) + "'");
  };
  if (header.size() < base.size() ||
      !std::equal(base.begin(), base.end(), header.begin()))
    throw bad_header();
  std::size_t at = base.size();
  bool with_domain = false;
  if (at < header.size() && header[at] == kDomainColumn) {
    with_domain = true;
    ++at;
  }
  bool with_timing = false;
  if (at < header.size() && header[at] == kTimingColumn) {
    with_timing = true;
    ++at;
  }
  if (at != header.size()) throw bad_header();
  const std::size_t expected_fields = at;

  std::vector<result_row> rows;
  for (std::size_t i = 1; i < records.size(); ++i) {
    const std::vector<std::string>& f = records[i];
    if (f.size() != expected_fields)
      throw std::invalid_argument("result_table: malformed CSV line '" +
                                  join_fields(f) + "'");
    result_row r;
    r.index = parse_csv_size(f[0]);
    r.model = f[1];
    r.slice = f[2];
    r.story = f[3];
    r.metric = f[4];
    r.scheme = f[5];
    r.points_per_unit = parse_csv_size(f[6]);
    r.dt = parse_csv_double(f[7]);
    r.rate = f[8];
    r.resolved_rate = f[9];
    r.t0 = parse_csv_double(f[10]);
    r.t_end = parse_csv_double(f[11]);
    r.cells = parse_csv_size(f[12]);
    r.accuracy = parse_csv_double(f[13]);
    r.fit_d = parse_csv_double(f[14]);
    r.fit_k = parse_csv_double(f[15]);
    r.fit_a = parse_csv_double(f[16]);
    r.fit_b = parse_csv_double(f[17]);
    r.fit_c = parse_csv_double(f[18]);
    r.fit_m = parse_multipliers(f[19]);
    r.fit_sse = parse_csv_double(f[20]);
    r.fit_evals = parse_csv_size(f[21]);
    std::size_t next = 22;
    if (with_domain) r.domain = f[next++];
    if (with_timing) r.wall_ms = parse_csv_double(f[next]);
    rows.push_back(std::move(r));
  }
  return result_table(std::move(rows));
}

std::string result_table::to_text() const {
  // Like the CSV, the text rendering only grows a domain column when some
  // row solved a non-line domain — line-only tables keep the historical
  // layout.
  const bool with_domain =
      std::any_of(rows_.begin(), rows_.end(),
                  [](const result_row& r) { return r.domain != "line"; });
  std::vector<std::string> header{"#",     "model",    "slice", "scheme",
                                  "pts/u", "dt",       "rate",  "accuracy",
                                  "cells", "fit sse",  "evals", "ms"};
  if (with_domain) header.insert(header.begin() + 7, "domain");
  eval::text_table table(header);
  for (const result_row& r : rows_) {
    const bool calibrated = r.fit_evals > 0;
    std::vector<std::string> fields{
        std::to_string(r.index), r.model, r.slice, r.scheme,
        r.points_per_unit == 0 ? std::string("-")
                               : std::to_string(r.points_per_unit),
        r.dt == 0.0 ? std::string("-") : eval::text_table::num(r.dt),
        r.rate, eval::text_table::pct(r.accuracy),
        std::to_string(r.cells),
        calibrated ? eval::text_table::num(r.fit_sse, 4) : std::string("-"),
        calibrated ? std::to_string(r.fit_evals) : std::string("-"),
        eval::text_table::num(r.wall_ms, 2)};
    if (with_domain) fields.insert(fields.begin() + 7, r.domain);
    table.add_row(std::move(fields));
  }
  return table.str();
}

partial_merge merge_tables_partial(std::span<const result_table> shards,
                                   std::size_t total) {
  std::size_t present = 0;
  for (const result_table& shard : shards) present += shard.size();
  std::vector<result_row> rows;
  rows.reserve(present);
  for (const result_table& shard : shards)
    rows.insert(rows.end(), shard.rows().begin(), shard.rows().end());
  std::sort(rows.begin(), rows.end(),
            [](const result_row& a, const result_row& b) {
              return a.index < b.index;
            });
  partial_merge out;
  std::size_t next = 0;  // the smallest index not yet accounted for
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (k > 0 && rows[k].index == rows[k - 1].index)
      throw std::invalid_argument(
          "merge_tables: scenario index " + std::to_string(rows[k].index) +
          " appears in more than one shard");
    if (rows[k].index >= total)
      throw std::invalid_argument(
          "merge_tables: scenario index " + std::to_string(rows[k].index) +
          " is out of range for a sweep of " + std::to_string(total) +
          " scenarios");
    for (; next < rows[k].index; ++next) out.missing.push_back(next);
    next = rows[k].index + 1;
  }
  for (; next < total; ++next) out.missing.push_back(next);
  out.table = result_table(std::move(rows));
  return out;
}

result_table merge_tables(std::span<const result_table> shards) {
  // The sweep ends at the highest index present; any gap below it is a
  // dropped or truncated shard.
  std::size_t total = 0;
  for (const result_table& shard : shards)
    for (const result_row& row : shard.rows())
      total = std::max(total, row.index + 1);
  partial_merge merged = merge_tables_partial(shards, total);
  if (!merged.missing.empty())
    throw std::invalid_argument(
        "merge_tables: scenario index " +
        std::to_string(merged.missing.front()) +
        " is missing from the merged shards (dropped or truncated shard "
        "table?)");
  return std::move(merged.table);
}

}  // namespace dlm::engine
