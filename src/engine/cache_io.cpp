#include "engine/cache_io.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

namespace dlm::engine {
namespace {

constexpr std::uint32_t kTraceSectionTag = 1;
constexpr std::uint32_t kValueSectionTag = 2;
constexpr std::uint32_t kSectionCount = 2;

// ----------------------------------------------------------- LE writing

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_string(std::string& out, std::string_view s) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::runtime_error("cache_io: key too long to serialize");
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// ------------------------------------------------------------ LE reader
//
// Every read is bounds checked against the remaining bytes; the first
// failed read latches ok() false and all further reads return zeros, so
// parsing code can stay linear and check ok() at section boundaries.

class reader {
 public:
  explicit reader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == bytes_.size(); }

  std::uint32_t get_u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t get_u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    pos_ += 8;
    return v;
  }

  double get_f64() { return std::bit_cast<double>(get_u64()); }

  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }

  std::string_view get_bytes(std::size_t n) {
    if (!need(n)) return {};
    const std::string_view v = bytes_.substr(pos_, n);
    pos_ += n;
    return v;
  }

 private:
  bool need(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Parsed-but-not-yet-committed file content: nothing touches the cache
/// until every section verified and parsed cleanly.
struct parsed_file {
  std::vector<std::pair<std::string, model_trace>> traces;
  std::vector<std::pair<std::string, double>> values;
};

/// Parses one trace entry at `r`'s cursor — the shared step of the
/// snapshot section parser and the journal record decoder
/// (decode_trace_entry).  Returns an error message or empty.
std::string parse_one_trace(reader& r, std::string& key, model_trace& trace) {
  const std::uint32_t key_len = r.get_u32();
  if (key_len > r.remaining()) return "trace key overruns section";
  key = std::string(r.get_bytes(key_len));
  const std::uint32_t domain_len = r.get_u32();
  if (!r.ok() || domain_len > r.remaining())
    return "trace domain overruns section";
  trace.domain = std::string(r.get_bytes(domain_len));
  const std::uint32_t n_dist = r.get_u32();
  if (!r.ok() || n_dist > r.remaining() / 4)
    return "trace distance count overruns section";
  trace.distances.reserve(n_dist);
  for (std::uint32_t d = 0; d < n_dist; ++d)
    trace.distances.push_back(r.get_i32());
  const std::uint32_t n_times = r.get_u32();
  if (!r.ok() || n_times > r.remaining() / 8)
    return "trace time count overruns section";
  trace.times.reserve(n_times);
  for (std::uint32_t t = 0; t < n_times; ++t)
    trace.times.push_back(r.get_f64());
  trace.effective_dt = r.get_f64();
  const std::uint64_t cells =
      static_cast<std::uint64_t>(n_dist) * static_cast<std::uint64_t>(n_times);
  if (!r.ok() || cells > r.remaining() / 8)
    return "trace blob overruns section";
  trace.predicted.resize(n_dist);
  for (std::uint32_t d = 0; d < n_dist; ++d) {
    trace.predicted[d].reserve(n_times);
    for (std::uint32_t t = 0; t < n_times; ++t)
      trace.predicted[d].push_back(r.get_f64());
  }
  if (!r.ok()) return "truncated trace entry";
  return {};
}

std::string parse_one_value(reader& r, std::string& key, double& value) {
  const std::uint32_t key_len = r.get_u32();
  if (key_len > r.remaining()) return "value key overruns section";
  key = std::string(r.get_bytes(key_len));
  value = r.get_f64();
  if (!r.ok()) return "truncated value entry";
  return {};
}

/// Parses the trace section payload.  Returns an error message or empty.
std::string parse_trace_section(std::string_view payload, parsed_file& out) {
  reader r(payload);
  const std::uint64_t count = r.get_u64();
  // A trace entry occupies at least key length + domain length + distance
  // count + time count + effective_dt = 24 bytes; a declared count the
  // remaining bytes cannot possibly hold is rejected before any
  // allocation.
  if (count > r.remaining() / 24)
    return "trace count " + std::to_string(count) +
           " exceeds section capacity";
  out.traces.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key;
    model_trace trace;
    if (std::string error = parse_one_trace(r, key, trace); !error.empty())
      return error;
    out.traces.emplace_back(std::move(key), std::move(trace));
  }
  if (!r.at_end()) return "trailing bytes in trace section";
  return {};
}

std::string parse_value_section(std::string_view payload, parsed_file& out) {
  reader r(payload);
  const std::uint64_t count = r.get_u64();
  // Minimum value entry: key length + value = 12 bytes.
  if (count > r.remaining() / 12)
    return "value count " + std::to_string(count) +
           " exceeds section capacity";
  out.values.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key;
    double value = 0.0;
    if (std::string error = parse_one_value(r, key, value); !error.empty())
      return error;
    out.values.emplace_back(std::move(key), value);
  }
  if (!r.at_end()) return "trailing bytes in value section";
  return {};
}

cache_load_result reject(solve_cache& cache, std::string error) {
  cache.count_load_rejected();
  cache_load_result result;
  result.error = std::move(error);
  return result;
}

}  // namespace

std::uint64_t cache_checksum(std::string_view bytes) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a 64 offset basis
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;  // FNV-1a 64 prime
  }
  return hash;
}

std::string encode_trace_entry(std::string_view key,
                               const model_trace& trace) {
  if (trace.predicted.size() != trace.distances.size())
    throw std::runtime_error("cache_io: trace '" + std::string(key) +
                             "' has a ragged predicted surface");
  std::string out;
  put_string(out, key);
  put_string(out, trace.domain);
  put_u32(out, static_cast<std::uint32_t>(trace.distances.size()));
  for (const int d : trace.distances) put_i32(out, d);
  put_u32(out, static_cast<std::uint32_t>(trace.times.size()));
  for (const double t : trace.times) put_f64(out, t);
  put_f64(out, trace.effective_dt);
  for (const std::vector<double>& row : trace.predicted) {
    if (row.size() != trace.times.size())
      throw std::runtime_error("cache_io: trace '" + std::string(key) +
                               "' has a ragged predicted surface");
    for (const double v : row) put_f64(out, v);
  }
  return out;
}

std::string encode_value_entry(std::string_view key, double value) {
  std::string out;
  put_string(out, key);
  put_f64(out, value);
  return out;
}

std::string decode_trace_entry(std::string_view payload, std::string& key,
                               model_trace& trace) {
  reader r(payload);
  trace = model_trace{};
  if (std::string error = parse_one_trace(r, key, trace); !error.empty())
    return error;
  if (!r.at_end()) return "trailing bytes after trace entry";
  return {};
}

std::string decode_value_entry(std::string_view payload, std::string& key,
                               double& value) {
  reader r(payload);
  if (std::string error = parse_one_value(r, key, value); !error.empty())
    return error;
  if (!r.at_end()) return "trailing bytes after value entry";
  return {};
}

std::string serialize_cache(const solve_cache& cache) {
  std::string traces;
  const std::vector<solve_cache::trace_export> trace_entries =
      cache.export_traces();
  put_u64(traces, trace_entries.size());
  for (const solve_cache::trace_export& entry : trace_entries)
    traces += encode_trace_entry(entry.key, *entry.trace);

  std::string values;
  const std::vector<solve_cache::value_export> value_entries =
      cache.export_values();
  put_u64(values, value_entries.size());
  for (const solve_cache::value_export& entry : value_entries)
    values += encode_value_entry(entry.key, entry.value);

  std::string out;
  out.reserve(24 + 40 + traces.size() + values.size());
  out.append(kCacheMagic);
  put_u32(out, kCacheFormatVersion);
  put_u32(out, kSectionCount);
  const auto append_section = [&out](std::uint32_t tag,
                                     const std::string& payload) {
    put_u32(out, tag);
    put_u64(out, payload.size());
    put_u64(out, cache_checksum(payload));
    out.append(payload);
  };
  append_section(kTraceSectionTag, traces);
  append_section(kValueSectionTag, values);
  return out;
}

cache_load_result deserialize_cache(solve_cache& cache,
                                    std::string_view bytes) {
  reader r(bytes);
  const std::string_view magic = r.get_bytes(kCacheMagic.size());
  if (!r.ok()) return reject(cache, "file shorter than the header");
  if (magic != kCacheMagic) return reject(cache, "bad magic");
  const std::uint32_t version = r.get_u32();
  const std::uint32_t sections = r.get_u32();
  if (!r.ok()) return reject(cache, "file shorter than the header");
  if (version != kCacheFormatVersion)
    return reject(cache, "unsupported format version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kCacheFormatVersion) + ")");
  if (sections != kSectionCount)
    return reject(cache,
                  "unexpected section count " + std::to_string(sections));

  parsed_file parsed;
  for (const std::uint32_t expected_tag :
       {kTraceSectionTag, kValueSectionTag}) {
    const std::uint32_t tag = r.get_u32();
    const std::uint64_t payload_bytes = r.get_u64();
    const std::uint64_t checksum = r.get_u64();
    if (!r.ok()) return reject(cache, "truncated section header");
    if (tag != expected_tag)
      return reject(cache, "unexpected section tag " + std::to_string(tag));
    if (payload_bytes > r.remaining())
      return reject(cache, "section payload overruns file");
    const std::string_view payload =
        r.get_bytes(static_cast<std::size_t>(payload_bytes));
    if (cache_checksum(payload) != checksum)
      return reject(cache, "section checksum mismatch");
    const std::string error = tag == kTraceSectionTag
                                  ? parse_trace_section(payload, parsed)
                                  : parse_value_section(payload, parsed);
    if (!error.empty()) return reject(cache, error);
  }
  if (!r.at_end()) return reject(cache, "trailing bytes after last section");

  // Whole file verified: commit.  Everything before this line must not
  // have touched the cache.
  cache_load_result result;
  result.loaded = true;
  result.traces = parsed.traces.size();
  result.values = parsed.values.size();
  for (auto& [key, trace] : parsed.traces)
    cache.import_trace(key,
                       std::make_shared<const model_trace>(std::move(trace)));
  for (const auto& [key, value] : parsed.values)
    cache.import_value(key, value);
  return result;
}

void save_cache(const solve_cache& cache, const std::filesystem::path& path) {
  const std::string bytes = serialize_cache(cache);
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::runtime_error("cache_io: cannot open '" + tmp.string() +
                               "' for writing");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out)
      throw std::runtime_error("cache_io: write to '" + tmp.string() +
                               "' failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("cache_io: cannot move cache into place at '" +
                             path.string() + "'");
  }
}

cache_load_result load_cache(solve_cache& cache,
                             const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // A missing file is a normal cold start, not a corrupt cache.
    cache_load_result result;
    result.file_missing = true;
    return result;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof())
    return reject(cache, "read of '" + path.string() + "' failed");
  return deserialize_cache(cache, bytes);
}

std::string probe_cache_writable(const std::filesystem::path& path) {
  // Probe the exact file save_cache will write (the ".tmp" sibling) so a
  // pass here means the later atomic save can at least open its target.
  const std::filesystem::path tmp = path.string() + ".tmp";
  std::error_code ec;
  const bool existed = std::filesystem::exists(tmp, ec);
  {
    // Append mode: an existing .tmp (a concurrent writer's in-flight
    // save) is left intact, not truncated.
    std::ofstream out(tmp, std::ios::binary | std::ios::app);
    if (!out)
      return "cache file '" + path.string() + "' is not writable (cannot "
             "open '" + tmp.string() + "')";
  }
  if (!existed) std::filesystem::remove(tmp, ec);
  return {};
}

cache_merge_result merge_cache_files(
    solve_cache& into, std::span<const std::filesystem::path> paths) {
  // Load every input into a scratch cache first: any missing or corrupt
  // file aborts the whole merge before `into` is touched, mirroring the
  // loader's own all-or-nothing contract.
  std::vector<std::unique_ptr<solve_cache>> scratch;
  cache_merge_result result;
  for (const std::filesystem::path& path : paths) {
    auto cache = std::make_unique<solve_cache>();
    cache_load_result load = load_cache(*cache, path);
    if (!load.loaded) {
      if (load.file_missing)
        throw std::runtime_error("merge_cache_files: input '" + path.string() +
                                 "' does not exist");
      throw std::runtime_error("merge_cache_files: input '" + path.string() +
                               "' rejected: " + load.error);
    }
    result.loads.push_back(std::move(load));
    scratch.push_back(std::move(cache));
  }

  for (const std::unique_ptr<solve_cache>& cache : scratch) {
    for (solve_cache::trace_export& entry : cache->export_traces()) {
      switch (into.merge_trace(entry.key, std::move(entry.trace))) {
        case solve_cache::merge_outcome::inserted: ++result.merged_traces; break;
        case solve_cache::merge_outcome::duplicate: ++result.duplicates; break;
        case solve_cache::merge_outcome::conflict: ++result.conflicts; break;
      }
    }
    for (const solve_cache::value_export& entry : cache->export_values()) {
      switch (into.merge_value(entry.key, entry.value)) {
        case solve_cache::merge_outcome::inserted: ++result.merged_values; break;
        case solve_cache::merge_outcome::duplicate: ++result.duplicates; break;
        case solve_cache::merge_outcome::conflict: ++result.conflicts; break;
      }
    }
  }
  return result;
}

std::filesystem::path cache_journal_path(
    const std::filesystem::path& snapshot_path) {
  return snapshot_path.string() + ".wal";
}

persistent_cache::persistent_cache(std::filesystem::path path,
                                   std::size_t max_entries,
                                   journal_options journal)
    : path_(std::move(path)),
      cache_(max_entries),
      journal_options_(journal) {
  load_ = load_cache(cache_, path_);
  write_error_ = probe_cache_writable(path_);
  if (!write_error_.empty())
    std::fprintf(stderr,
                 "persistent_cache: %s — the save-on-exit will fail\n",
                 write_error_.c_str());
  if (!journal_options_.enabled) return;

  // Snapshot first, then the WAL on top: records that made it into a
  // snapshot before a crash replay as benign first-insert-wins
  // duplicates.
  const std::filesystem::path wal = cache_journal_path(path_);
  replay_ = replay_journal(cache_, wal);
  try {
    cache_journal::options jopt;
    jopt.fsync_each = journal_options_.fsync_each;
    jopt.torn_write_record = journal_options_.torn_write_record;
    journal_ = std::make_unique<cache_journal>(wal, jopt);
  } catch (const std::exception& e) {
    // A journal that cannot open degrades to the plain save-on-exit
    // wrapper — surfaced, not fatal.
    if (write_error_.empty()) write_error_ = e.what();
    std::fprintf(stderr, "persistent_cache: %s — journaling disabled\n",
                 e.what());
    return;
  }
  // Observe every winning insert from here on.  The observer runs
  // outside the cache mutex (see solve_cache::set_write_observer), so
  // the auto-checkpoint below may serialize the cache safely.
  cache_journal* jrnl = journal_.get();
  const std::uint64_t compact_bytes = journal_options_.compact_bytes;
  solve_cache* cache = &cache_;
  const std::filesystem::path snapshot = path_;
  cache_.set_write_observer([jrnl, compact_bytes, cache, snapshot](
                                const std::string& key,
                                const model_trace* trace,
                                const double* value) {
    if (trace != nullptr) jrnl->append_trace(key, *trace);
    if (value != nullptr) jrnl->append_value(key, *value);
    if (compact_bytes != 0 && jrnl->bytes() > compact_bytes &&
        jrnl->write_error().empty()) {
      try {
        jrnl->checkpoint([cache, &snapshot] { save_cache(*cache, snapshot); });
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "persistent_cache: auto-checkpoint of '%s' failed: %s\n",
                     snapshot.string().c_str(), e.what());
      }
    }
  });
}

void persistent_cache::flush() {
  if (journal_ != nullptr) {
    journal_->checkpoint([this] { save_cache(cache_, path_); });
    return;
  }
  save_cache(cache_, path_);
}

void persistent_cache::close() {
  if (closed_) return;
  closed_ = true;
  // Uninstalled first, so even a failed final flush leaves no observer
  // writing to a journal nobody will checkpoint.
  cache_.set_write_observer({});
  flush();
}

persistent_cache::~persistent_cache() {
  if (closed_) return;
  try {
    flush();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "persistent_cache: save to '%s' failed: %s\n",
                 path_.string().c_str(), e.what());
  }
  // The observer holds the raw journal pointer; drop it before the
  // journal member destructs.
  cache_.set_write_observer({});
}

}  // namespace dlm::engine
