#include "engine/cache_journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "engine/cache_io.h"

namespace dlm::engine {
namespace {

constexpr std::uint32_t kTraceRecord = 1;
constexpr std::uint32_t kValueRecord = 2;
constexpr std::size_t kHeaderBytes = 12;      // magic (8) + version u32
constexpr std::size_t kRecordHeaderBytes = 20;  // kind u32 + len u64 + sum u64

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
}

std::uint32_t get_u32(std::string_view bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  return v;
}

std::uint64_t get_u64(std::string_view bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  return v;
}

std::string fresh_header() {
  std::string out;
  out.reserve(kHeaderBytes);
  out.append(kJournalMagic);
  put_u32(out, kJournalFormatVersion);
  return out;
}

/// One verified record of a scan.
struct scanned_record {
  std::uint32_t kind = 0;
  std::string_view payload;
};

/// Outcome of scanning a journal's bytes.
struct scan_result {
  /// False iff the header itself is wrong (bad magic / version on a
  /// complete header) — the file is not ours.
  bool header_ok = false;
  /// Valid prefix length (header + whole verified records).  For an
  /// empty file this is 0 with header_ok true (clean cold journal).
  std::uint64_t valid_bytes = 0;
  std::vector<scanned_record> records;
  /// True when bytes beyond valid_bytes exist (a torn/corrupt tail).
  bool torn_tail = false;
  /// The header defect (header_ok false) or the tail defect (torn_tail).
  std::string error;
};

scan_result scan_journal(std::string_view bytes) {
  scan_result scan;
  if (bytes.empty()) {
    scan.header_ok = true;  // a zero-length WAL is a clean cold journal
    return scan;
  }
  if (bytes.size() < kHeaderBytes) {
    // A torn header: the writer died inside the initial 12 bytes.  When
    // whatever magic bytes are present match ours (a 9..11-byte prefix
    // holds the whole magic plus part of the version), the file cannot
    // be a foreign one — treat it as ours and truncate to empty.
    const std::size_t check = std::min(bytes.size(), kJournalMagic.size());
    if (bytes.substr(0, check) != kJournalMagic.substr(0, check)) {
      scan.error = "bad magic";
      return scan;
    }
    scan.header_ok = true;
    scan.torn_tail = true;
    scan.error = "torn header";
    return scan;
  }
  if (bytes.substr(0, kJournalMagic.size()) != kJournalMagic) {
    scan.error = "bad magic";
    return scan;
  }
  const std::uint32_t version = get_u32(bytes, kJournalMagic.size());
  if (version != kJournalFormatVersion) {
    scan.error = "unsupported journal version " + std::to_string(version) +
                 " (expected " + std::to_string(kJournalFormatVersion) + ")";
    return scan;
  }
  scan.header_ok = true;
  scan.valid_bytes = kHeaderBytes;

  std::size_t at = kHeaderBytes;
  while (at < bytes.size()) {
    if (bytes.size() - at < kRecordHeaderBytes) {
      scan.torn_tail = true;
      scan.error = "torn record header";
      break;
    }
    const std::uint32_t kind = get_u32(bytes, at);
    const std::uint64_t payload_bytes = get_u64(bytes, at + 4);
    const std::uint64_t checksum = get_u64(bytes, at + 12);
    if (kind != kTraceRecord && kind != kValueRecord) {
      scan.torn_tail = true;
      scan.error = "unknown record kind " + std::to_string(kind);
      break;
    }
    if (payload_bytes > bytes.size() - at - kRecordHeaderBytes) {
      scan.torn_tail = true;
      scan.error = "torn record payload";
      break;
    }
    const std::string_view payload =
        bytes.substr(at + kRecordHeaderBytes,
                     static_cast<std::size_t>(payload_bytes));
    if (cache_checksum(payload) != checksum) {
      scan.torn_tail = true;
      scan.error = "record checksum mismatch";
      break;
    }
    scan.records.push_back({kind, payload});
    at += kRecordHeaderBytes + static_cast<std::size_t>(payload_bytes);
    scan.valid_bytes = at;
  }
  return scan;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

journal_replay_result replay_journal(solve_cache& cache,
                                     const std::filesystem::path& path) {
  journal_replay_result result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    result.replayed = true;  // a missing WAL is a normal cold start
    result.file_missing = true;
    return result;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    cache.count_load_rejected();
    result.error = "read of '" + path.string() + "' failed";
    return result;
  }
  result.file_bytes = bytes.size();

  const scan_result scan = scan_journal(bytes);
  if (!scan.header_ok) {
    cache.count_load_rejected();
    result.error = scan.error;
    return result;
  }
  result.valid_bytes = scan.valid_bytes;
  result.torn_tail = scan.torn_tail;
  result.error = scan.error;

  // Decode every verified record before applying any: a record whose
  // payload fails to parse despite its checksum is corruption mid-file,
  // and the records after it must not apply out of order.  Everything
  // from the first defect on is reported as the (un-replayed) tail.
  std::vector<std::pair<std::string, model_trace>> traces;
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::uint32_t> order;  // kinds, in record order
  std::uint64_t applied_bytes = kHeaderBytes;
  for (const scanned_record& record : scan.records) {
    std::string key;
    std::string error;
    if (record.kind == kTraceRecord) {
      model_trace trace;
      error = decode_trace_entry(record.payload, key, trace);
      if (error.empty()) traces.emplace_back(std::move(key), std::move(trace));
    } else {
      double value = 0.0;
      error = decode_value_entry(record.payload, key, value);
      if (error.empty()) values.emplace_back(std::move(key), value);
    }
    if (!error.empty()) {
      result.torn_tail = true;
      result.error = error;
      result.valid_bytes = applied_bytes;
      break;
    }
    order.push_back(record.kind);
    applied_bytes += kRecordHeaderBytes + record.payload.size();
  }

  result.replayed = true;
  result.traces = traces.size();
  result.values = values.size();
  for (auto& [key, trace] : traces)
    cache.import_trace(std::move(key),
                       std::make_shared<const model_trace>(std::move(trace)));
  for (auto& [key, value] : values) cache.import_value(std::move(key), value);
  return result;
}

cache_journal::cache_journal(std::filesystem::path path, options opt)
    : path_(std::move(path)), opt_(opt) {
  // Scan whatever exists so a torn tail is truncated before appending;
  // a file that is not a journal at all must be left alone.
  std::string existing;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in)
      existing.assign((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  }
  const scan_result scan = scan_journal(existing);
  if (!scan.header_ok)
    throw std::runtime_error("cache_journal: '" + path_.string() +
                             "' is not a cache journal (" + scan.error + ")");

  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd_ < 0)
    throw_errno("cache_journal: cannot open '" + path_.string() + "'");
  if (scan.valid_bytes < kHeaderBytes) {
    // Empty (or torn-header) file: start from a fresh header.
    if (::ftruncate(fd_, 0) != 0)
      throw_errno("cache_journal: truncate '" + path_.string() + "'");
    const std::string header = fresh_header();
    if (::write(fd_, header.data(), header.size()) !=
        static_cast<ssize_t>(header.size()))
      throw_errno("cache_journal: write header to '" + path_.string() + "'");
    bytes_ = header.size();
  } else {
    // Truncate the torn tail (no-op when the file is clean) and append
    // after the valid prefix.
    if (::ftruncate(fd_, static_cast<off_t>(scan.valid_bytes)) != 0)
      throw_errno("cache_journal: truncate '" + path_.string() + "'");
    if (::lseek(fd_, 0, SEEK_END) < 0)
      throw_errno("cache_journal: seek '" + path_.string() + "'");
    bytes_ = scan.valid_bytes;
  }
}

cache_journal::~cache_journal() {
  if (fd_ >= 0) ::close(fd_);
}

void cache_journal::append_record(std::uint32_t kind,
                                  const std::string& payload) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!write_error_.empty()) return;  // latched: the journal is dead

  std::string record;
  record.reserve(kRecordHeaderBytes + payload.size());
  put_u32(record, kind);
  put_u64(record, payload.size());
  put_u64(record, cache_checksum(payload));
  record.append(payload);

  std::size_t write_bytes = record.size();
  const bool torn = opt_.torn_write_record.has_value() &&
                    *opt_.torn_write_record == appended_;
  if (torn) write_bytes = record.size() / 2;  // fault: die mid-append

  std::size_t written = 0;
  while (written < write_bytes) {
    const ssize_t n =
        ::write(fd_, record.data() + written, write_bytes - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      write_error_ = "cache_journal: write to '" + path_.string() +
                     "' failed: " + std::strerror(errno);
      return;
    }
    written += static_cast<std::size_t>(n);
  }
  bytes_ += written;
  if (torn) {
    if (opt_.fsync_each) ::fsync(fd_);
    write_error_ = "fault injection: torn write at record " +
                   std::to_string(appended_);
    return;
  }
  if (opt_.fsync_each && ::fsync(fd_) != 0) {
    write_error_ = "cache_journal: fsync of '" + path_.string() +
                   "' failed: " + std::strerror(errno);
    return;
  }
  ++appended_;
}

void cache_journal::append_trace(std::string_view key,
                                 const model_trace& trace) {
  std::string payload;
  try {
    payload = encode_trace_entry(key, trace);
  } catch (const std::exception& e) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (write_error_.empty()) write_error_ = e.what();
    return;
  }
  append_record(kTraceRecord, payload);
}

void cache_journal::append_value(std::string_view key, double value) {
  append_record(kValueRecord, encode_value_entry(key, value));
}

std::uint64_t cache_journal::bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::size_t cache_journal::appended_records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

std::string cache_journal::write_error() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return write_error_;
}

void cache_journal::checkpoint(const std::function<void()>& write_snapshot) {
  // The append lock is held across snapshot + reset: a concurrent
  // insert either lands in the snapshot (its WAL record then replays as
  // a benign duplicate) or appends to the fresh WAL after the reset —
  // never between, never lost.
  const std::lock_guard<std::mutex> lock(mutex_);
  write_snapshot();
  if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) {
    if (write_error_.empty())
      write_error_ = "cache_journal: reset of '" + path_.string() +
                     "' failed: " + std::strerror(errno);
    return;
  }
  const std::string header = fresh_header();
  if (::write(fd_, header.data(), header.size()) !=
      static_cast<ssize_t>(header.size())) {
    if (write_error_.empty())
      write_error_ = "cache_journal: reset of '" + path_.string() +
                     "' failed: " + std::strerror(errno);
    return;
  }
  bytes_ = header.size();
}

}  // namespace dlm::engine
