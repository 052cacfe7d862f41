// Resident DL prediction service — server and minimal client in one
// binary.
//
// Server: keeps the solve cache and calibration thread pool warm across
// requests, answering the length-prefixed protocol of
// engine/service.h on a local AF_UNIX socket.  With --cache-file the
// cache is loaded on start and flushed on shutdown (SIGINT/SIGTERM, or
// a client's "shutdown" verb), so the next process — server or CLI —
// starts warm.
//
//   dl_serve --socket /tmp/dlm.sock [--cache-file dlm_cache.bin]
//            [--threads N] [--max-frame BYTES] [--test-surface]
//            [--io-timeout SEC] [--journal]
//
// Numeric flags are parsed strictly (no sign, no trailing bytes, no NaN
// or infinity; --max-frame positive, --io-timeout at most 1e9 s): a bad
// value is a usage error naming the flag and its argv position.
//
// Failure handling (docs/robustness.md): the server ignores SIGPIPE so
// a client that vanishes mid-reply costs one dropped connection (the
// "stats" verb reports dropped=N), never the process.  --io-timeout
// bounds each recv/send so a wedged client cannot pin the acceptor
// forever, and --journal (requires --cache-file) appends each new cache
// entry to a write-ahead log beside the snapshot so a crashed server
// loses at most the in-flight record.
//
// By default the server builds the synthetic Digg-2009 dataset at test
// scale (4 flagship stories × 2 distance metrics = 8 slices);
// --test-surface swaps in the tiny single-slice DL surface the perf
// benches use, which starts instantly.
//
// Client: one framed request per invocation, response on stdout
// (exit 1 when the server answers an error frame):
//
//   dl_serve --socket /tmp/dlm.sock --request "slices"
//   dl_serve --socket /tmp/dlm.sock
//       --request "predict model=dl slice=s1/hops rate=preset x=2 t=6"
//   dl_serve --socket /tmp/dlm.sock --request "shutdown"
//
// solve/predict/calibrate requests accept an optional domain=<spec> key
// (engine::make_domain grammar: "line", "grid2d:<y_min>,<y_max>",
// "comm:<K>[|mix=...][|scale=...]"); non-line traces echo the canonical
// label back as a trailing " domain=<label>" field, line responses are
// byte-identical to before the domain PR.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "cli_common.h"
#include "digg/simulator.h"
#include "engine/service.h"

namespace {

std::atomic<bool> g_signal_stop{false};

void on_signal(int) { g_signal_stop.store(true); }

const char* kUsage =
    "usage: dl_serve --socket <path> [--cache-file <path>] [--threads N]\n"
    "                [--max-frame BYTES] [--test-surface]\n"
    "                [--io-timeout SEC] [--journal]\n"
    "       dl_serve --socket <path> --request \"<verb> ...\"\n";

int bad_cli(const std::string& reason, int position) {
  return dlm::cli::bad_cli("dl_serve", reason, position, kUsage);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dlm;

  std::string socket_path;
  std::string cache_file;
  std::string request;
  std::size_t threads = 0;
  std::size_t max_frame = engine::kDefaultMaxFrameBytes;
  bool test_surface = false;
  double io_timeout = 0.0;
  bool journal = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(bad_cli(arg + " needs a value", i));
      return argv[++i];
    };
    try {
      if (arg == "--socket") {
        socket_path = next();
      } else if (arg == "--cache-file") {
        cache_file = next();
      } else if (arg == "--request") {
        request = next();
      } else if (arg == "--threads") {
        threads = cli::parse_cli_number<std::size_t>(arg, next());
      } else if (arg == "--max-frame") {
        max_frame = cli::parse_cli_number<std::size_t>(arg, next());
        if (max_frame == 0) return bad_cli("--max-frame must be positive", i);
      } else if (arg == "--io-timeout") {
        io_timeout = cli::parse_cli_number<double>(arg, next());
        // Bounded so the timeval conversion cannot overflow.
        if (io_timeout > engine::kMaxIoTimeoutSec)
          return bad_cli("--io-timeout must be at most 1e9 seconds", i);
      } else if (arg == "--journal") {
        journal = true;
      } else if (arg == "--test-surface") {
        test_surface = true;
      } else {
        return bad_cli("unknown argument '" + arg + "'", i);
      }
    } catch (const std::exception& e) {
      // Number rejections, positioned at the value.
      return bad_cli(e.what(), i);
    }
  }
  if (socket_path.empty()) return bad_cli("--socket is required", 0);

  // ---- client mode ----
  if (!request.empty()) {
    try {
      engine::service_client client(socket_path);
      const std::string reply = client.request(request);
      std::printf("%s\n", reply.c_str());
      return reply.starts_with("err") ? 1 : 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dl_serve: %s\n", e.what());
      return 1;
    }
  }

  // ---- server mode ----
  // Refuse a doomed --cache-file up front: a resident server that only
  // discovers an unwritable cache path at shutdown loses its warm cache.
  if (!cache_file.empty()) {
    const std::string write_error = engine::probe_cache_writable(cache_file);
    if (!write_error.empty()) {
      std::fprintf(stderr, "dl_serve: %s\n", write_error.c_str());
      return 1;
    }
  }

  engine::scenario_context context;
  if (test_surface) {
    context = cli::make_test_surface();
  } else {
    const digg::scenario_config config = digg::test_scale_scenario();
    std::printf("generating synthetic Digg dataset (%zu users, seed %llu)...\n",
                config.graph.users,
                static_cast<unsigned long long>(config.seed));
    context = engine::scenario_context::from_dataset(
        digg::make_dataset(config));
  }

  engine::service_options options;
  options.socket_path = socket_path;
  options.cache_file = cache_file;
  options.threads = threads;
  options.max_frame_bytes = max_frame;
  options.io_timeout_sec = io_timeout;
  options.journal = journal;
  if (journal && cache_file.empty()) {
    std::fprintf(stderr, "dl_serve: --journal requires --cache-file\n");
    return 2;
  }
  // A client tearing down its socket mid-reply must cost one dropped
  // connection, not the whole resident server.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const std::size_t slice_count = context.slice_count();
    engine::dl_service service(std::move(context), options);
    const engine::cache_load_result& load = service.startup_load();
    if (!cache_file.empty()) {
      if (load.loaded)
        std::printf("cache: loaded %zu traces + %zu values from %s\n",
                    load.traces, load.values, cache_file.c_str());
      else if (load.file_missing)
        std::printf("cache: %s missing, starting cold\n", cache_file.c_str());
      else
        std::printf("cache: rejected %s (%s), starting cold\n",
                    cache_file.c_str(), load.error.c_str());
    }
    std::printf("listening on %s (%zu slices)\n", socket_path.c_str(),
                slice_count);
    std::fflush(stdout);

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    while (!g_signal_stop.load() && !service.stopped())
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    service.stop();
    const engine::cache_stats stats = service.stats();
    std::printf("stopped after %zu requests (%zu hits, %zu misses)\n",
                service.requests_served(), stats.hits, stats.misses);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dl_serve: %s\n", e.what());
    return 1;
  }
}
