// Protocol suite for the resident sweep service (engine/service.h).
//
// The guarantees a long-running server must actually keep: framing
// survives hostile input (oversized declared lengths, malformed
// requests) with the connection intact; concurrent clients read
// deterministic byte-for-byte responses; and a shutdown arriving while
// a request is in flight still answers that request and still flushes
// the warm cache to disk.  Every test runs a real dl_service on a real
// AF_UNIX socket — nothing is mocked.

#include "engine/service.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/dl_model.h"
#include "engine/cache_io.h"

namespace {

using namespace dlm;
using namespace dlm::engine;

/// The synthetic single-slice DL surface the perf benches use — tiny,
/// self-consistent (calibrate recovers the generating parameters) and
/// instant to build.
scenario_context make_context() {
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  truth.d = 0.06;
  truth.k = 22.0;
  const std::vector<double> initial{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};
  const core::dl_model model(truth, initial, 1.0, 6.0);
  std::vector<std::vector<double>> surface(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    surface[i].push_back(initial[i]);
    for (int t = 2; t <= 6; ++t)
      surface[i].push_back(model.predict(static_cast<int>(i) + 1, t));
  }
  return scenario_context::from_surface(
      "svc", social::distance_metric::friendship_hops, std::move(surface),
      core::dl_parameters::paper_hops(6.0));
}

/// Unique socket path per service instance (AF_UNIX paths are global
/// state; two tests sharing one would race).
std::string fresh_socket_path() {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("dlm_service_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock"))
      .string();
}

/// A running service plus the slice name requests address.
struct test_service {
  explicit test_service(service_options options = {}) {
    scenario_context context = make_context();
    slice = context.slice_names().at(0);
    if (options.socket_path.empty()) options.socket_path = fresh_socket_path();
    socket_path = options.socket_path;
    service.emplace(std::move(context), std::move(options));
  }
  std::string slice;
  std::string socket_path;
  std::optional<dl_service> service;
};

// ---------------------------------------------------------------- framing

TEST(ServiceFraming, RoundTripsOnASocketpair) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string payload;

  write_frame(fds[0], "hello frames");
  ASSERT_EQ(read_frame(fds[1], payload, 1 << 20), frame_status::ok);
  EXPECT_EQ(payload, "hello frames");

  write_frame(fds[0], "");  // empty payload is a valid frame
  ASSERT_EQ(read_frame(fds[1], payload, 1 << 20), frame_status::ok);
  EXPECT_EQ(payload, "");

  const std::string big(100000, 'x');
  write_frame(fds[0], big);
  ASSERT_EQ(read_frame(fds[1], payload, 1 << 20), frame_status::ok);
  EXPECT_EQ(payload, big);

  ::close(fds[0]);
  EXPECT_EQ(read_frame(fds[1], payload, 1 << 20), frame_status::closed);
  ::close(fds[1]);
}

TEST(ServiceFraming, OversizedFrameIsDrainedAndTheStreamStaysFramed) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string payload;

  // 10000-byte payload against a 64-byte cap, then a normal frame.  The
  // reader must report the first as oversized and read the second
  // intact — proving the whole declared payload was drained.
  write_frame(fds[0], std::string(10000, 'y'));
  write_frame(fds[0], "next frame");
  EXPECT_EQ(read_frame(fds[1], payload, 64), frame_status::oversized);
  ASSERT_EQ(read_frame(fds[1], payload, 64), frame_status::ok);
  EXPECT_EQ(payload, "next frame");

  ::close(fds[0]);
  ::close(fds[1]);
}

// --------------------------------------------------------------- requests

TEST(Service, AnswersPingAndSurvivesMalformedRequests) {
  test_service ts;
  service_client client(ts.socket_path);

  EXPECT_EQ(client.request("ping"), "ok pong");
  // Every malformed shape answers an error frame on the SAME connection,
  // which must stay usable afterwards.
  EXPECT_TRUE(client.request("").starts_with("err empty"));
  EXPECT_TRUE(client.request("warp").starts_with("err unknown verb"));
  EXPECT_TRUE(client.request("ping extra").starts_with("err verb 'ping'"));
  EXPECT_TRUE(client.request("solve").starts_with("err missing model="));
  EXPECT_TRUE(client.request("solve model=dl").starts_with(
      "err missing slice="));
  EXPECT_TRUE(client.request("solve model=dl slice=nope")
                  .starts_with("err unknown slice"));
  EXPECT_TRUE(client.request("solve model=nope slice=" + ts.slice)
                  .starts_with("err"));
  EXPECT_TRUE(client.request("solve model=dl slice=" + ts.slice + " dt=zebra")
                  .starts_with("err cannot parse dt="));
  // Non-finite reals and an x outside int's range are rejected at the
  // boundary: NaN is the "unset" sentinel for d/k, and x is cast to int.
  const struct {
    const char* args;
    const char* reply;
  } boundary[] = {
      {"dt=inf", "err cannot parse dt='inf'"},
      {"t0=nan", "err cannot parse t0='nan'"},
      {"t_end=-inf", "err cannot parse t_end='-inf'"},
      {"d=nan", "err cannot parse d='nan'"},
      {"k=inf", "err cannot parse k='inf'"},
      {"x=2 t=nan", "err cannot parse t='nan'"},
      {"x=99999999999 t=3", "err cannot parse x='99999999999'"},
      {"x=-99999999999 t=3", "err cannot parse x='-99999999999'"},
      {"x=inf t=3", "err cannot parse x='inf'"},
  };
  for (const auto& c : boundary)
    EXPECT_EQ(client.request("predict model=dl slice=" + ts.slice + " " +
                             c.args),
              c.reply);
  // Finite but huge window values must not reach an int or size_t cast:
  // a step count past 2^53 and a t0 with no observed hour are errors, a
  // huge t_end clips to the horizon.
  const struct {
    const char* args;
    const char* reply_prefix;
  } huge[] = {
      {"dt=1e-300", "err solve_dl: step count"},
      // A dt past the window is one step of the whole window.
      {"dt=1e13", "ok trace "},
      {"dt=1e300", "ok trace "},
      {"t0=1e300", "err diffusion_model: no observed hour"},
      {"t0=-1e300", "err diffusion_model: no observed hour"},
      {"t_end=1e300", "ok trace "},
  };
  for (const auto& c : huge) {
    const std::string reply =
        client.request("solve model=dl slice=" + ts.slice + " " + c.args);
    EXPECT_TRUE(reply.starts_with(c.reply_prefix)) << c.args << ": " << reply;
    EXPECT_EQ(client.request("ping"), "ok pong") << c.args;
  }
  // A model without the calibration capability, asked to calibrate.
  for (const std::string verb : {"solve", "calibrate"})
    EXPECT_EQ(client.request(verb + " model=logistic slice=" + ts.slice +
                             " rate=calibrate"),
              "err model 'logistic' does not support calibrate rate specs");
  EXPECT_TRUE(client.request("solve model=dl slice=" + ts.slice +
                             " scheme=euler")
                  .starts_with("err unknown scheme"));
  EXPECT_TRUE(client.request("solve model=dl slice=" + ts.slice + " banana")
                  .starts_with("err malformed token"));
  EXPECT_TRUE(client.request("predict model=dl slice=" + ts.slice)
                  .starts_with("err predict requires"));
  EXPECT_EQ(client.request("ping"), "ok pong");

  EXPECT_EQ(client.request("slices"), "ok slices " + ts.slice);
}

TEST(Service, SolvesThroughTheResidentCacheDeterministically) {
  test_service ts;
  service_client client(ts.socket_path);
  const std::string req = "solve model=dl slice=" + ts.slice + " grid=10";

  const std::string first = client.request(req);
  ASSERT_TRUE(first.starts_with("ok trace ")) << first;
  // Identical request, same connection: identical bytes, served warm.
  EXPECT_EQ(client.request(req), first);
  // Identical request, new connection: still identical bytes.
  service_client other(ts.socket_path);
  EXPECT_EQ(other.request(req), first);

  // One real solve, then pure lookups (the miss path's store+re-find
  // counts one hit itself, so three requests read hits=3 misses=1).
  const std::string stats = client.request("stats");
  EXPECT_TRUE(stats.starts_with("ok stats hits=3 misses=1")) << stats;
}

TEST(Service, PredictMatchesTheSolvedTraceByteForByte) {
  test_service ts;
  service_client client(ts.socket_path);
  const std::string base = "model=dl slice=" + ts.slice + " grid=10";

  // Parse the solve response text: line 0 header, line 1 "x ...",
  // line 2 "t ...", line 3+i "p ..." per distance.
  const std::string trace = client.request("solve " + base);
  ASSERT_TRUE(trace.starts_with("ok trace ")) << trace;
  std::vector<std::vector<std::string>> lines;
  std::istringstream stream(trace);
  for (std::string line; std::getline(stream, line);) {
    std::vector<std::string>& tokens = lines.emplace_back();
    std::istringstream words(line);
    for (std::string word; words >> word;) tokens.push_back(word);
  }
  ASSERT_GE(lines.size(), 4u);
  const std::vector<std::string>& xs = lines[1];  // "x" d1 d2 ...
  const std::vector<std::string>& times = lines[2];

  // Every (x, t) cell of the trace must equal the predict response for
  // that cell — the two verbs are views of one cached solve.
  for (std::size_t i = 1; i < xs.size(); ++i) {
    for (std::size_t j = 1; j < times.size(); ++j) {
      const std::string reply = client.request(
          "predict " + base + " x=" + xs[i] + " t=" + times[j]);
      EXPECT_EQ(reply, "ok " + lines[3 + (i - 1)][j]) << "x=" << xs[i]
                                                      << " t=" << times[j];
    }
  }

  EXPECT_TRUE(client.request("predict " + base + " x=99 t=6")
                  .starts_with("err predict"));
}

TEST(Service, CalibrateRecoversTheGeneratingParameters) {
  test_service ts;
  service_client client(ts.socket_path);
  const std::string req =
      "calibrate model=dl slice=" + ts.slice + " rate=calibrate-fixed:3";

  const std::string reply = client.request(req);
  ASSERT_TRUE(reply.starts_with("ok fit d=")) << reply;
  double d = 0.0, k = 0.0;
  ASSERT_EQ(std::sscanf(reply.c_str(), "ok fit d=%lf k=%lf", &d, &k), 2);
  EXPECT_NEAR(d, 0.06, 0.01);  // the surface's generating parameters
  EXPECT_NEAR(k, 22.0, 1.0);

  // Deterministic and — with the fit memoized — warm on repeat.
  EXPECT_EQ(client.request(req), reply);
  const std::string stats = client.request("stats");
  EXPECT_TRUE(stats.starts_with("ok stats ")) << stats;
  EXPECT_EQ(stats.find(" misses=0"), std::string::npos)
      << "cold calibrate must have solved";

  EXPECT_TRUE(client.request("calibrate model=dl slice=" + ts.slice +
                             " rate=preset")
                  .starts_with("err calibrate requires"));
}

TEST(Service, CalibrateKeepsOneSmallRecordPerFit) {
  // A resident calibrate stores its fit as one record of n + 2 numbers
  // (d, K, a, b, c, SSE, evaluations) and none of its probes; a repeat
  // reads the record back: no new entry, no miss, the same bytes.
  test_service ts;
  service_client client(ts.socket_path);
  const std::string req =
      "calibrate model=dl slice=" + ts.slice + " rate=calibrate";
  const auto stat = [&client](std::string_view field) {
    const std::string stats = client.request("stats");
    std::string needle(" ");
    needle.append(field).push_back('=');
    const std::size_t at = stats.find(needle);
    EXPECT_NE(at, std::string::npos) << stats;
    return std::stoul(stats.substr(at + needle.size()));
  };

  const std::string reply = client.request(req);
  ASSERT_TRUE(reply.starts_with("ok fit d=")) << reply;
  EXPECT_EQ(stat("entries"), 7u);
  const std::size_t misses = stat("misses");

  EXPECT_EQ(client.request(req), reply);
  EXPECT_EQ(stat("entries"), 7u);
  EXPECT_EQ(stat("misses"), misses);
}

TEST(Service, CalibrateWithNoSolvableProbeAnswersAnError) {
  // Every probe's solve fails (its step count overflows): the reply is
  // an error naming that failure, not the box's corner as a fit.
  test_service ts;
  service_client client(ts.socket_path);
  EXPECT_EQ(client.request("calibrate model=dl slice=" + ts.slice +
                           " rate=calibrate dt=1e-300"),
            "err calibrate_dl: every coarse-lattice probe failed; the first: "
            "solve_dl: step count (t_end - t0)/dt must be finite and below "
            "2^53");
  EXPECT_EQ(client.request("ping"), "ok pong");
}

TEST(Service, ConcurrentClientsReadDeterministicReplies) {
  test_service ts;
  const std::vector<std::string> requests = {
      "solve model=dl slice=" + ts.slice + " grid=10",
      "solve model=dl slice=" + ts.slice + " grid=10 rate=constant:0.5",
      "predict model=dl slice=" + ts.slice + " grid=10 x=2 t=6",
      "calibrate model=dl slice=" + ts.slice + " rate=calibrate-fixed:3",
      "ping",
  };

  // Reference replies, sequentially.
  std::vector<std::string> expected;
  {
    service_client client(ts.socket_path);
    for (const std::string& req : requests)
      expected.push_back(client.request(req));
  }

  // Hammer the same requests from parallel connections in shifted
  // orders: every reply must be byte-identical to the reference — a
  // response is a pure function of the request.
  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      service_client client(ts.socket_path);
      for (int round = 0; round < kRounds; ++round)
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const std::size_t at = (i + static_cast<std::size_t>(c)) %
                                 requests.size();
          if (client.request(requests[at]) != expected[at])
            mismatches.fetch_add(1);
        }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Service, FreshSolvesUnderAOneEntryCacheAllAnswerTheirTrace) {
  // With room for one entry, every fresh solve's insert evicts the last
  // one, so a concurrent insert can evict a fresh trace before its own
  // request reads it back.  The request must still answer its trace.
  service_options options;
  options.cache_max_entries = 1;
  test_service ts(options);
  constexpr int kClients = 8;
  constexpr int kRequests = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      service_client client(ts.socket_path);
      for (int i = 0; i < kRequests; ++i) {
        const std::string rate =
            "constant:0." + std::to_string(100 + c * kRequests + i);
        const std::string reply = client.request(
            "solve model=dl slice=" + ts.slice + " grid=10 rate=" + rate);
        if (!reply.starts_with("ok trace ")) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Service, OversizedRequestGetsAnErrorFrameAndTheConnectionSurvives) {
  service_options options;
  options.max_frame_bytes = 1024;
  test_service ts(std::move(options));
  service_client client(ts.socket_path);

  const std::string oversized(2000, 'z');
  EXPECT_EQ(client.request(oversized),
            "err frame exceeds max_frame_bytes=1024");
  EXPECT_EQ(client.request("ping"), "ok pong");
}

TEST(Service, StaleSocketFileFromACrashedPredecessorIsReplaced) {
  const std::string path = fresh_socket_path();
  {
    // Simulate a crash: bind a socket and abandon the file.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ::close(fd);
    ASSERT_TRUE(std::filesystem::exists(path));
  }
  service_options options;
  options.socket_path = path;
  test_service ts(std::move(options));
  service_client client(path);
  EXPECT_EQ(client.request("ping"), "ok pong");
}

// --------------------------------------------------------------- shutdown

TEST(Service, ShutdownVerbStopsTheServiceAndFlushesTheCache) {
  const std::filesystem::path cache_file =
      std::filesystem::temp_directory_path() /
      ("dlm_service_shutdown_" + std::to_string(::getpid()) + ".cache");
  std::filesystem::remove(cache_file);

  service_options options;
  options.cache_file = cache_file.string();
  test_service ts(std::move(options));
  {
    service_client client(ts.socket_path);
    ASSERT_TRUE(client.request("solve model=dl slice=" + ts.slice + " grid=10")
                    .starts_with("ok trace "));
    EXPECT_EQ(client.request("shutdown"), "ok shutting down");
  }
  ts.service->stop();  // idempotent; returns once fully stopped
  EXPECT_TRUE(ts.service->stopped());
  EXPECT_FALSE(std::filesystem::exists(ts.socket_path))
      << "socket file must be removed on shutdown";

  // The flushed cache must load warm in a fresh cache.
  solve_cache reloaded;
  const cache_load_result load = load_cache(reloaded, cache_file);
  ASSERT_TRUE(load.loaded) << load.error;
  EXPECT_GE(load.traces, 1u);
  std::filesystem::remove(cache_file);
}

TEST(Service, ShutdownMidRequestStillAnswersTheInFlightRequest) {
  const std::filesystem::path cache_file =
      std::filesystem::temp_directory_path() /
      ("dlm_service_inflight_" + std::to_string(::getpid()) + ".cache");
  std::filesystem::remove(cache_file);

  service_options options;
  options.cache_file = cache_file.string();
  test_service ts(std::move(options));

  // A deliberately expensive request (calibrate-spatial fits 6 extra
  // dimensions) racing a shutdown from a second client.
  std::string slow_reply;
  std::thread slow([&] {
    service_client client(ts.socket_path);
    slow_reply = client.request("calibrate model=dl slice=" + ts.slice +
                                " rate=calibrate-spatial:3");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  {
    service_client client(ts.socket_path);
    EXPECT_EQ(client.request("shutdown"), "ok shutting down");
  }
  slow.join();
  // Whatever the interleaving, the in-flight request got its answer.
  EXPECT_TRUE(slow_reply.starts_with("ok fit d=")) << slow_reply;

  ts.service->stop();
  // The calibrate's fit record was flushed: the file loads warm.
  solve_cache reloaded;
  const cache_load_result load = load_cache(reloaded, cache_file);
  ASSERT_TRUE(load.loaded) << load.error;
  EXPECT_GT(load.traces + load.values, 0u);
  std::filesystem::remove(cache_file);
}

TEST(Service, StopIsIdempotentAndTheDestructorIsSafeAfterIt) {
  test_service ts;
  {
    service_client client(ts.socket_path);
    EXPECT_EQ(client.request("ping"), "ok pong");
  }
  ts.service->stop();
  ts.service->stop();
  EXPECT_TRUE(ts.service->stopped());
  ts.service.reset();  // destructor after an explicit stop
}

// ------------------------------------------------------- dl_serve CLI
//
// DLM_SERVE_BIN is the built dl_serve tool (wired in CMakeLists.txt).
// Numeric flags parse strictly: each bad value is a usage error (exit 2)
// naming the flag and its argv position.  Every case also passes
// --request against a socket nobody serves, so a flag that slipped
// through ends in a failed connect (exit 1), never a running server.

#ifdef DLM_SERVE_BIN

struct cli_outcome {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr together
};

cli_outcome run_dl_serve(const std::string& flags) {
  const std::string command = std::string(DLM_SERVE_BIN) +
                              " --socket " + fresh_socket_path() +
                              " --request ping " + flags + " 2>&1";
  cli_outcome outcome;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return outcome;
  char buffer[512];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
    outcome.output.append(buffer, n);
  const int status = ::pclose(pipe);
  outcome.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return outcome;
}

void expect_usage_error(const std::string& flags, const std::string& reason) {
  const cli_outcome outcome = run_dl_serve(flags);
  EXPECT_EQ(outcome.exit_code, 2) << flags << "\n" << outcome.output;
  EXPECT_NE(outcome.output.find(reason), std::string::npos)
      << flags << "\n" << outcome.output;
  EXPECT_NE(outcome.output.find("at position 6 in command line"),
            std::string::npos)
      << flags << "\n" << outcome.output;
  EXPECT_NE(outcome.output.find("usage: dl_serve"), std::string::npos)
      << flags << "\n" << outcome.output;
}

TEST(ServeCli, RejectsANegativeThreadCount) {
  expect_usage_error("--threads -1", "--threads expects a non-negative integer");
}

TEST(ServeCli, RejectsTrailingBytesInTheThreadCount) {
  expect_usage_error("--threads 4x", "--threads expects a non-negative integer");
}

TEST(ServeCli, RejectsANonNumericFrameCap) {
  expect_usage_error("--max-frame abc",
                     "--max-frame expects a non-negative integer");
}

TEST(ServeCli, RejectsAZeroFrameCap) {
  expect_usage_error("--max-frame 0", "--max-frame must be positive");
}

TEST(ServeCli, RejectsANanIoTimeout) {
  expect_usage_error("--io-timeout nan",
                     "--io-timeout expects a non-negative finite number");
}

TEST(ServeCli, RejectsAnIoTimeoutBeyondTheTimevalRange) {
  expect_usage_error("--io-timeout 1e300",
                     "--io-timeout must be at most 1e9 seconds");
}

#endif  // DLM_SERVE_BIN

}  // namespace
