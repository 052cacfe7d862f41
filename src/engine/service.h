// Resident sweep service: the long-running server mode of the engine.
//
// A production predictor answers most queries from a warm cache; a
// process that re-pays every cold solve per invocation cannot.
// dl_service keeps one solve_cache and one calibration thread pool
// alive across requests: a background accept worker listens on a local
// (AF_UNIX) stream socket and answers solve / predict / calibrate
// requests — each connection served on its own thread, all of them
// sharing the warm cache — until a graceful shutdown flushes the cache
// to disk.
//
// Wire protocol (see docs/solve_cache.md for the full specification):
// every frame is a u32 little-endian payload length followed by that
// many payload bytes, both directions.  Requests are single-line text,
// "<verb> key=value ...":
//
//   ping                          → "ok pong"
//   slices                        → "ok slices <name> ..."
//   stats                         → "ok stats hits=... misses=...
//                                    evictions=... load_rejected=...
//                                    merged=... merge_conflicts=...
//                                    entries=... requests=..."
//   solve model=dl slice=<name> [scheme= grid= dt= rate= t0= t_end=
//         seed= d= k=]            → "ok trace rows=R cols=C
//                                    effective_dt=E\nx ...\nt ...\n
//                                    p <row 0>\n..." (full %.17g
//                                    precision: byte-deterministic)
//   predict <solve args> x=<int> t=<hour>
//                                 → "ok <density>"
//   calibrate <solve args>        → "ok fit d=... k=... a=... b=...
//                                    c=... m=... sse=... evals=...
//                                    rate=<resolved>"
//   flush                         → saves the cache file now
//   shutdown                      → "ok shutting down", then the
//                                    service drains in-flight requests,
//                                    flushes the cache and stops
//
// Every malformed request — unknown verb, bad key, unparsable or
// non-finite value, out-of-range x, unknown slice or model — is answered
// with an "err <reason>" frame and the connection stays usable.  A frame
// whose declared length exceeds max_frame_bytes is drained and answered
// with an error frame, so one oversized request cannot desynchronize the
// stream.  Responses never
// include timings: a response is a pure function of the request and the
// slice data, so concurrent clients always read deterministic bytes.
//
// Client side: service_client is one blocking connection.
// remote_registry wraps a model registry so that its models solve and
// calibrate through "solve" / "calibrate" requests — the replies parsed
// back exactly, since every double crosses the wire at %.17g — while
// answering every capability query locally.  A sweep run through
// run_sweep with that registry is a remote sweep (or remote shard) with
// run_sweep's batching, partition, error attribution and row
// construction; no second executor exists.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/cache_io.h"
#include "engine/model_registry.h"
#include "engine/scenario.h"
#include "engine/solve_cache.h"
#include "engine/thread_pool.h"
#include "fit/calibrate.h"

namespace dlm::engine {

/// Default frame-size cap: far above any request and any trace response
/// the engine produces, far below a resource-exhaustion payload.
inline constexpr std::size_t kDefaultMaxFrameBytes = 1 << 20;

/// Largest accepted service_options::io_timeout_sec (about 31 years):
/// any value up to it converts to a timeval without overflow.
inline constexpr double kMaxIoTimeoutSec = 1e9;

struct service_options {
  /// AF_UNIX socket path to listen on (required; a stale socket file
  /// from a crashed predecessor is replaced).
  std::string socket_path;
  /// Cache persistence: loaded on start, flushed on shutdown and by the
  /// "flush" verb.  Empty → in-memory only.
  std::string cache_file;
  /// Calibration pool width; 0 → hardware concurrency.
  std::size_t threads = 0;
  /// Frames with a larger declared payload are rejected with an error
  /// frame (the connection survives).
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// LRU cap of the resident cache; 0 → unbounded.
  std::size_t cache_max_entries = 0;
  /// Box bounds / lattice resolution for "calibrate" requests.
  fit::calibration_options calibration{};
  /// Model registry; null → default_registry().
  const model_registry* registry = nullptr;
  /// Per-connection socket I/O timeout in seconds (SO_RCVTIMEO /
  /// SO_SNDTIMEO on each accepted connection): a client that stalls
  /// mid-frame is dropped instead of pinning its worker thread forever.
  /// 0 disables (the historical blocking behaviour); values outside
  /// [0, kMaxIoTimeoutSec] (or NaN) are rejected.  Note the receive
  /// timeout also bounds *idle* time between requests — pick a value
  /// comfortably above the client's think time, or have clients
  /// reconnect (engine::remote_options does, transparently).
  double io_timeout_sec = 0.0;
  /// Write-ahead journal the resident cache to "<cache_file>.wal" (see
  /// engine/cache_journal.h): a SIGKILLed service loses at most the
  /// in-flight record instead of everything since the last flush.
  bool journal = false;
  /// Auto-checkpoint threshold for the journal (journal_options
  /// semantics); 0 disables auto-compaction.
  std::uint64_t journal_compact_bytes = 4ull << 20;
};

// --------------------------------------------------------------- framing
//
// Shared by the service, the bundled client and the protocol tests.

enum class frame_status {
  ok,        ///< payload read completely
  closed,    ///< clean EOF (or EOF mid-frame: peer went away)
  oversized  ///< declared length > max_frame_bytes; payload drained
};

/// Reads one length-prefixed frame from `fd` into `payload`.  Blocks.
/// Throws std::runtime_error on socket errors (EINTR is retried).
[[nodiscard]] frame_status read_frame(int fd, std::string& payload,
                                      std::size_t max_frame_bytes);

/// Writes one length-prefixed frame.  Throws std::runtime_error on
/// socket errors or a payload above u32 range.
void write_frame(int fd, std::string_view payload);

/// Blocking convenience client for the protocol above.
class service_client {
 public:
  /// Connects to a dl_service socket.  Throws std::runtime_error when
  /// the connection fails.
  explicit service_client(const std::string& socket_path);
  ~service_client();
  service_client(const service_client&) = delete;
  service_client& operator=(const service_client&) = delete;

  /// One framed round-trip.  Throws std::runtime_error when the server
  /// closes the connection before responding.
  [[nodiscard]] std::string request(std::string_view payload);

  /// The raw connected socket — protocol tests poke malformed bytes
  /// through this.
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
};

/// Connection-resilience knobs for remote_registry.
struct remote_options {
  /// Retries after a *connection-level* failure (connect refused, server
  /// closed mid-request, I/O timeout) — each retry reconnects and
  /// re-sends.  Safe to repeat: a reply is a pure function of the
  /// request, so a re-send can only reproduce the same bytes.  "err"
  /// replies are protocol answers, not connection failures, and are
  /// never retried.  0 (default): fail on the first error.
  std::size_t retries = 0;
  /// Backoff before retry r is initial * multiplier^(r-1) milliseconds.
  double backoff_initial_ms = 50.0;
  double backoff_multiplier = 2.0;
};

/// A registry with one model per name in `base`, each wrapping
/// base.make(name): every capability flag (supports_batch included) is
/// the local model's, so expand_sweep, batch_sweep and shard_chunks see
/// exactly what a local run sees, while solve() and calibrate() are
/// "solve" / "calibrate" requests to the dl_serve server at
/// `socket_path`.  solve_batch keeps the default per-scenario loop.  The
/// models share one connection pool: a connection is opened lazily when
/// no idle one is free and returned after each request, so a sweep holds
/// at most one per concurrently requesting pool worker and reuses it
/// across scenarios.  An "err" reply throws std::runtime_error carrying
/// the reply (run_sweep adds the scenario's identity).  For calibrate
/// rows to match a local run, the server's calibration options must
/// equal the runner's.
[[nodiscard]] model_registry remote_registry(
    const std::string& socket_path, const remote_options& remote = {},
    const model_registry& base = default_registry());

// --------------------------------------------------------------- service

class dl_service {
 public:
  /// Takes ownership of the slice context, loads the cache file (when
  /// configured), binds the socket and starts the background accept
  /// worker.  Throws std::runtime_error when the socket cannot be
  /// bound; a rejected cache file is *not* an error (the service starts
  /// cold — see startup_load()).
  dl_service(scenario_context context, service_options options);

  /// Equivalent to stop().
  ~dl_service();

  dl_service(const dl_service&) = delete;
  dl_service& operator=(const dl_service&) = delete;

  /// Graceful shutdown: stop accepting, let every in-flight request
  /// finish and its response flush out, close the connections, save the
  /// cache file, remove the socket.  Idempotent and safe to call
  /// concurrently; returns once the service has fully stopped.
  void stop();

  [[nodiscard]] bool stopped() const;

  [[nodiscard]] const std::string& socket_path() const noexcept {
    return options_.socket_path;
  }
  /// The resident cache (shared with in-flight requests; the cache is
  /// internally synchronized).
  [[nodiscard]] solve_cache& cache() noexcept {
    return persistent_ ? persistent_->cache() : *memory_cache_;
  }
  [[nodiscard]] cache_stats stats() const {
    return persistent_ ? persistent_->cache().stats() : memory_cache_->stats();
  }
  /// What loading options.cache_file on start saw.
  [[nodiscard]] const cache_load_result& startup_load() const noexcept {
    return startup_load_;
  }
  /// Frames answered so far (including error frames).
  [[nodiscard]] std::size_t requests_served() const noexcept {
    return requests_.load();
  }
  /// Connections dropped on a socket error or I/O timeout (not clean
  /// client EOFs) — surfaced in the "stats" verb as dropped=N.
  [[nodiscard]] std::size_t connections_dropped() const noexcept {
    return dropped_.load();
  }

 private:
  struct connection {
    int fd = -1;
    std::thread worker;
  };

  void accept_loop();
  void lifecycle_loop();
  void serve_connection(connection* conn);
  void request_stop();
  void do_stop();
  [[nodiscard]] std::string handle_request(const std::string& payload,
                                           bool& shutdown_after_reply);

  scenario_context context_;
  service_options options_;
  /// The resident cache: a persistent_cache (snapshot load, WAL replay
  /// and journaling, flush) when options_.cache_file is set, otherwise
  /// an in-memory solve_cache.  Exactly one is engaged.
  std::optional<persistent_cache> persistent_;
  std::optional<solve_cache> memory_cache_;
  cache_load_result startup_load_;
  std::unique_ptr<thread_pool> pool_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::thread lifecycle_thread_;

  mutable std::mutex conn_mutex_;
  std::vector<std::unique_ptr<connection>> connections_;

  mutable std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  /// Atomic so the accept loop can poll it under conn_mutex_ alone.
  std::atomic<bool> stop_requested_{false};
  bool stopped_ = false;

  std::mutex flush_mutex_;  ///< serializes "flush" verb vs shutdown flush
  std::atomic<std::size_t> requests_{0};
  std::atomic<std::size_t> dropped_{0};
};

}  // namespace dlm::engine
