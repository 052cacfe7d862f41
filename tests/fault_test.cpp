// The failure-domain suite (ctest label `fault`).
//
// Robustness code that only runs when hardware actually fails has never
// run.  Everything here *makes* the failures happen — deterministically
// — and pins the recovery the layer promises:
//
//  * the fault-plan grammar (engine/fault.h) parses, round-trips and
//    rejects with 1-based positions like every other spec parser;
//  * the supervisor (engine/supervisor.h) names signals, enforces
//    per-attempt timeouts, retries with the attempt number exported to
//    the child, and either fail-fasts siblings or lets them finish;
//  * a SIGKILLed journaled sweep replays from snapshot + WAL and
//    re-runs with zero PDE solves — the headline crash-safety claim;
//  * dl_shard end-to-end (via DLM_SHARD_BIN): an injected worker crash
//    under --allow-partial exits 0, merges the completed shards
//    byte-identically to the unsharded rows and names the missing
//    indices in the manifest; --retries turns the same crash into a
//    full-success run;
//  * the resident service answers "health", bounds wedged clients with
//    io_timeout_sec (counting them in stats dropped=), and a sweep over
//    remote_registry reconnects through remote_options.

#include "engine/fault.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dl_model.h"
#include "engine/cache_io.h"
#include "engine/scenario_runner.h"
#include "engine/service.h"
#include "engine/shard.h"
#include "engine/supervisor.h"

namespace {

using namespace dlm;
using engine::fault_kind;
using engine::fault_plan;
using engine::fault_point;

std::filesystem::path temp_path(const std::string& leaf) {
  return std::filesystem::temp_directory_path() /
         ("dlm_fault_test_" + std::to_string(::getpid()) + "_" + leaf);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// ------------------------------------------------------ fault-plan grammar

TEST(FaultPlan, ParsesEveryAcceptedForm) {
  const fault_plan crash = engine::parse_fault_plan("crash:worker2@chunk3");
  ASSERT_EQ(crash.points().size(), 1u);
  EXPECT_EQ(crash.points()[0], (fault_point{fault_kind::crash, 2, 3, 0}));

  const fault_plan hang =
      engine::parse_fault_plan("hang:worker1@chunk0|tries=2");
  ASSERT_EQ(hang.points().size(), 1u);
  EXPECT_EQ(hang.points()[0], (fault_point{fault_kind::hang, 1, 0, 2}));

  const fault_plan torn = engine::parse_fault_plan("torn-write:journal@rec5");
  ASSERT_EQ(torn.points().size(), 1u);
  EXPECT_EQ(torn.points()[0].kind, fault_kind::torn_write);
  EXPECT_EQ(torn.points()[0].site, 5u);

  const fault_plan multi = engine::parse_fault_plan(
      "crash:worker0@chunk1;hang:worker1@chunk0|tries=2;"
      "torn-write:journal@rec5|tries=1");
  EXPECT_EQ(multi.points().size(), 3u);
}

TEST(FaultPlan, LabelRoundTripsThroughTheParser) {
  const std::string spec =
      "crash:worker0@chunk1;hang:worker1@chunk0|tries=2;"
      "torn-write:journal@rec5";
  const fault_plan plan = engine::parse_fault_plan(spec);
  EXPECT_EQ(plan.label(), spec);
  EXPECT_EQ(engine::parse_fault_plan(plan.label()).label(), spec);
  EXPECT_TRUE(fault_plan().empty());
  EXPECT_EQ(fault_plan().label(), "");
}

TEST(FaultPlan, TriesGatesTheAttemptsAFaultFiresOn) {
  const fault_plan plan =
      engine::parse_fault_plan("crash:worker1@chunk2|tries=2");
  EXPECT_TRUE(plan.should_crash(1, 2, 1));
  EXPECT_TRUE(plan.should_crash(1, 2, 2));
  EXPECT_FALSE(plan.should_crash(1, 2, 3)) << "tries=2 must disarm attempt 3";
  EXPECT_FALSE(plan.should_crash(0, 2, 1)) << "wrong worker";
  EXPECT_FALSE(plan.should_crash(1, 0, 1)) << "wrong chunk";
  EXPECT_FALSE(plan.should_hang(1, 2, 1)) << "crash is not hang";

  // tries omitted: armed on every attempt.
  const fault_plan always = engine::parse_fault_plan("hang:worker0@chunk0");
  EXPECT_TRUE(always.should_hang(0, 0, 1));
  EXPECT_TRUE(always.should_hang(0, 0, 99));

  const fault_plan torn =
      engine::parse_fault_plan("torn-write:journal@rec4|tries=1");
  EXPECT_EQ(torn.torn_write_record(1), std::optional<std::uint64_t>(4));
  EXPECT_EQ(torn.torn_write_record(2), std::nullopt);
}

TEST(FaultPlan, RejectionsNameThePositionSpecAndGrammar) {
  const struct {
    const char* spec;
    const char* fragment;
    const char* position;  // "at position N" — 1-based in the full plan
  } cases[] = {
      {"", "empty fault plan", "at position 1"},
      {"explode:worker0@chunk0", "unknown fault kind 'explode'",
       "at position 1"},
      {"crashworker0chunk0", "missing ':'", "at position 1"},
      {"crash:w0@chunk0", "fault subject must be 'worker<i>'",
       "at position 7"},
      {"crash:workerX@chunk0", "bad worker index 'X'", "at position 13"},
      {"crash:worker0chunk0", "missing '@'", "at position 7"},
      {"crash:worker0@lap0", "fault site must be 'chunk<j>'",
       "at position 15"},
      {"crash:worker0@chunk", "bad chunk index ''", "at position 20"},
      {"crash:worker0@chunk0|boom=2", "unknown fault option 'boom=2'",
       "at position 22"},
      {"crash:worker0@chunk0|tries=0", "tries count must be positive",
       "at position 28"},
      {"crash:worker0@chunk0;", "empty fault", "at position 22"},
      {"torn-write:disk@rec0", "torn-write subject must be 'journal'",
       "at position 12"},
      {"torn-write:journal@5", "torn-write site must be 'rec<k>'",
       "at position 20"},
  };
  for (const auto& c : cases) {
    try {
      (void)engine::parse_fault_plan(c.spec);
      FAIL() << "'" << c.spec << "' parsed";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.fragment), std::string::npos)
          << c.spec << ": " << what;
      EXPECT_NE(what.find(c.position), std::string::npos)
          << c.spec << ": " << what;
      EXPECT_NE(what.find("'" + std::string(c.spec) + "'"), std::string::npos)
          << "spec not echoed verbatim: " << what;
      EXPECT_NE(what.find("accepted fault plan forms"), std::string::npos)
          << "grammar missing: " << what;
    }
  }
}

TEST(FaultPlan, WorkerAttemptComesFromTheSupervisorEnv) {
  ::unsetenv(engine::kWorkerAttemptEnv);
  EXPECT_EQ(engine::worker_attempt_from_env(), 1u);
  ::setenv(engine::kWorkerAttemptEnv, "3", 1);
  EXPECT_EQ(engine::worker_attempt_from_env(), 3u);
  ::setenv(engine::kWorkerAttemptEnv, "zebra", 1);
  EXPECT_EQ(engine::worker_attempt_from_env(), 1u);
  ::unsetenv(engine::kWorkerAttemptEnv);
}

TEST(FaultHook, IsEmptyUnlessAFaultIsArmedForThisWorkerAndAttempt) {
  const fault_plan plan =
      engine::parse_fault_plan("crash:worker1@chunk2|tries=1");
  EXPECT_FALSE(static_cast<bool>(engine::make_fault_hook(plan, 0, 1)))
      << "hook installed for an unaffected worker";
  EXPECT_FALSE(static_cast<bool>(engine::make_fault_hook(plan, 1, 2)))
      << "hook installed past the tries gate";
  EXPECT_TRUE(static_cast<bool>(engine::make_fault_hook(plan, 1, 1)));
  EXPECT_FALSE(static_cast<bool>(
      engine::make_fault_hook(engine::parse_fault_plan("torn-write:journal@rec0"),
                              0, 1)))
      << "torn-write is the journal's fault, not the runner hook's";

  // A hang hook with a tiny budget must return (the slice-sleeping loop
  // is what keeps a forgotten timeout from wedging CI forever).
  const auto hook = engine::make_fault_hook(
      engine::parse_fault_plan("hang:worker0@chunk1"), 0, 1,
      /*hang_seconds=*/0.05);
  ASSERT_TRUE(static_cast<bool>(hook));
  hook(0);  // unaffected chunk: no-op
  hook(1);  // the armed chunk: sleeps ~50 ms, then returns
}

// ------------------------------------------------------------- supervisor

engine::worker_command sh(const std::string& script,
                          const std::string& label) {
  return {"/bin/sh", {"-c", script}, {}, label};
}

TEST(Supervisor, AllWorkersSucceeding) {
  const std::vector<engine::worker_command> commands = {
      sh("exit 0", "worker 0/2"), sh("exit 0", "worker 1/2")};
  const engine::supervision_report report =
      engine::supervise(commands, engine::supervisor_options{});
  EXPECT_TRUE(report.all_succeeded());
  ASSERT_EQ(report.outcomes.size(), 2u);
  for (const engine::worker_outcome& o : report.outcomes) {
    EXPECT_EQ(o.attempts, 1u);
    EXPECT_FALSE(o.timed_out);
    EXPECT_TRUE(o.diagnostic.empty()) << o.diagnostic;
  }
  EXPECT_TRUE(report.failures().empty());
}

TEST(Supervisor, ExitStatusAndAttemptCountLandInTheDiagnostic) {
  const std::vector<engine::worker_command> commands = {
      sh("exit 3", "worker 0/1")};
  const engine::supervision_report report =
      engine::supervise(commands, engine::supervisor_options{});
  ASSERT_EQ(report.failures().size(), 1u);
  EXPECT_EQ(report.failures()[0].diagnostic,
            "exited with status 3 (attempt 1 of 1)");
}

TEST(Supervisor, SignalDeathIsNamedNotNumberedOnly) {
  const std::vector<engine::worker_command> commands = {
      sh("kill -ABRT $$", "worker 0/1")};
  const engine::supervision_report report =
      engine::supervise(commands, engine::supervisor_options{});
  ASSERT_EQ(report.failures().size(), 1u);
  const std::string diag = report.failures()[0].diagnostic;
  EXPECT_NE(diag.find("killed by signal 6"), std::string::npos) << diag;
  EXPECT_NE(diag.find("Abort"), std::string::npos)
      << "strsignal name missing: " << diag;
}

TEST(Supervisor, RetriesExportTheAttemptNumberToTheChild) {
  // The child consults DLM_WORKER_ATTEMPT — exactly how injected faults
  // disarm themselves via |tries=<n> — and succeeds on attempt 2.
  const std::vector<engine::worker_command> commands = {
      sh("test \"${DLM_WORKER_ATTEMPT}\" -ge 2", "worker 0/1")};
  engine::supervisor_options options;
  options.max_retries = 2;
  options.backoff_initial_ms = 10.0;
  const engine::supervision_report report =
      engine::supervise(commands, options);
  EXPECT_TRUE(report.all_succeeded());
  EXPECT_EQ(report.outcomes[0].attempts, 2u);
}

TEST(Supervisor, HungWorkerIsKilledByThePerAttemptTimeout) {
  const std::vector<engine::worker_command> commands = {
      sh("sleep 30", "worker 0/1")};
  engine::supervisor_options options;
  options.timeout_sec = 0.3;
  const auto start = std::chrono::steady_clock::now();
  const engine::supervision_report report =
      engine::supervise(commands, options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_EQ(report.failures().size(), 1u);
  EXPECT_TRUE(report.failures()[0].timed_out);
  EXPECT_NE(report.failures()[0].diagnostic.find("timed out after"),
            std::string::npos)
      << report.failures()[0].diagnostic;
  EXPECT_LT(elapsed, 10.0) << "the 30 s sleep was waited out";
}

TEST(Supervisor, FailFastTerminatesSiblings) {
  const std::vector<engine::worker_command> commands = {
      sh("exit 1", "worker 0/2"), sh("sleep 30", "worker 1/2")};
  engine::supervisor_options options;  // fail_fast defaults on
  const auto start = std::chrono::steady_clock::now();
  const engine::supervision_report report =
      engine::supervise(commands, options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(report.all_succeeded());
  EXPECT_NE(report.outcomes[1].diagnostic.find(
                "terminated: sibling worker worker 0/2 failed"),
            std::string::npos)
      << report.outcomes[1].diagnostic;
  EXPECT_LT(elapsed, 10.0) << "fail-fast waited for the sleeping sibling";
}

TEST(Supervisor, WithoutFailFastSurvivorsFinish) {
  const std::vector<engine::worker_command> commands = {
      sh("exit 1", "worker 0/2"), sh("exit 0", "worker 1/2")};
  engine::supervisor_options options;
  options.fail_fast = false;
  const engine::supervision_report report =
      engine::supervise(commands, options);
  EXPECT_FALSE(report.outcomes[0].succeeded);
  EXPECT_TRUE(report.outcomes[1].succeeded)
      << report.outcomes[1].diagnostic;
}

// ------------------------------------------- SIGKILL → WAL replay → warm

/// The self-consistent synthetic DL surface the persistence suites use.
engine::scenario_context make_context(const std::string& name = "fault") {
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
  return engine::scenario_context::from_surface(
      name, social::distance_metric::friendship_hops, std::move(surface),
      core::dl_parameters::paper_hops(6.0));
}

/// A pure-solve sweep (no calibrate rows): every row's trace lands in
/// the cache, so a fully warm repeat means stats().misses == 0.
engine::sweep_spec make_solve_spec() {
  engine::sweep_spec spec;
  spec.models = {"dl"};
  spec.schemes = {core::dl_scheme::strang_cn, core::dl_scheme::ftcs};
  spec.grid = {12};
  spec.rates = {"preset", "constant:0.5"};
  spec.domains = {"line", "grid2d:1,3"};
  return spec;
}

TEST(JournalCrashSafety, SigkilledSweepReplaysAndRerunsWithZeroSolves) {
  const std::filesystem::path snapshot = temp_path("sigkill.cache");
  const std::filesystem::path wal = engine::cache_journal_path(snapshot);
  std::filesystem::remove(snapshot);
  std::filesystem::remove(wal);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The victim: run the journaled sweep, then die the death no
    // destructor survives — no flush, no snapshot save.  The WAL is the
    // only durable copy of this process's work.
    engine::journal_options jopt;
    jopt.enabled = true;
    engine::persistent_cache persist(snapshot, 0, jopt);
    if (persist.journal() == nullptr) ::_exit(112);
    const engine::scenario_context ctx = make_context();
    engine::runner_options options;
    options.threads = 1;
    options.cache = &persist.cache();
    (void)engine::run_sweep(ctx, make_solve_spec(), options);
    ::raise(SIGKILL);
    ::_exit(113);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  ASSERT_FALSE(std::filesystem::exists(snapshot))
      << "SIGKILL must preclude the snapshot save";
  ASSERT_TRUE(std::filesystem::exists(wal));

  // Replay: snapshot missing, WAL carries every insert.  The re-run
  // must be fully warm — zero PDE solves — and byte-identical to an
  // independent cold run.
  engine::journal_options jopt;
  jopt.enabled = true;
  engine::persistent_cache persist(snapshot, 0, jopt);
  EXPECT_TRUE(persist.startup_load().file_missing);
  EXPECT_TRUE(persist.startup_replay().replayed)
      << persist.startup_replay().error;
  EXPECT_GT(persist.startup_replay().traces, 0u)
      << "no trace records survived the SIGKILL";

  const engine::scenario_context ctx = make_context();
  engine::runner_options warm;
  warm.threads = 1;
  warm.cache = &persist.cache();
  const std::string warm_csv =
      engine::run_sweep(ctx, make_solve_spec(), warm).table.to_csv();
  EXPECT_EQ(persist.cache().stats().misses, 0u)
      << "the replayed WAL did not make the sweep fully warm";

  engine::runner_options cold;
  cold.threads = 1;
  const std::string cold_csv =
      engine::run_sweep(ctx, make_solve_spec(), cold).table.to_csv();
  EXPECT_EQ(warm_csv, cold_csv);

  std::filesystem::remove(snapshot);
  std::filesystem::remove(wal);
}

// --------------------------------------------------- service resilience

std::string fresh_socket_path(const std::string& tag) {
  return temp_path(tag + ".sock").string();
}

TEST(ServiceResilience, HealthVerbAnswersHealthy) {
  engine::service_options options;
  options.socket_path = fresh_socket_path("health");
  options.threads = 1;
  engine::dl_service service(make_context("svc"), options);
  engine::service_client client(service.socket_path());
  EXPECT_EQ(client.request("health"), "ok healthy");
  EXPECT_TRUE(client.request("health extra").starts_with("err verb"));
  service.stop();
}

TEST(ServiceResilience, WedgedClientIsDroppedByTheIoTimeoutAndCounted) {
  engine::service_options options;
  options.socket_path = fresh_socket_path("wedge");
  options.threads = 1;
  options.io_timeout_sec = 0.3;
  engine::dl_service service(make_context("svc"), options);

  // The wedge: connect, send half a frame header, go silent.  Without
  // SO_RCVTIMEO this connection would pin its server thread forever.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                service.socket_path().c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, "\x02\x00", 2, 0), 2);

  // A healthy client keeps working while the wedged one times out, and
  // stats eventually reports the drop.
  engine::service_client client(service.socket_path());
  EXPECT_EQ(client.request("ping"), "ok pong");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::string stats;
  while (std::chrono::steady_clock::now() < deadline) {
    stats = client.request("stats");
    if (stats.find(" dropped=1") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_NE(stats.find(" dropped=1"), std::string::npos) << stats;
  EXPECT_EQ(service.connections_dropped(), 1u);
  ::close(fd);
  service.stop();
}

TEST(ServiceResilience, RemoteShardReconnectsThroughRetries) {
  // The server comes up *after* the client starts asking: every connect
  // until then fails, and remote_options' retry/backoff bridges the gap
  // — the "service restarted mid-fleet" shape.
  const std::string socket_path = fresh_socket_path("lateserver");
  const engine::scenario_context ctx = make_context("svc");
  engine::sweep_spec spec;
  spec.models = {"dl"};
  spec.schemes = {core::dl_scheme::strang_cn};
  spec.grid = {12};
  spec.rates = {"preset", "constant:0.5"};
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(spec, ctx);

  engine::runner_options local_options;
  local_options.threads = 1;
  const std::string local_csv =
      engine::run_sweep(ctx, scenarios, local_options).table.to_csv();

  std::optional<engine::dl_service> service;
  std::thread late_starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    engine::service_options options;
    options.socket_path = socket_path;
    options.threads = 1;
    service.emplace(make_context("svc"), std::move(options));
  });

  engine::remote_options remote;
  remote.retries = 20;
  remote.backoff_initial_ms = 50.0;
  remote.backoff_multiplier = 1.0;  // steady 50 ms probes
  const engine::model_registry retrying =
      engine::remote_registry(socket_path, remote);
  engine::runner_options remote_run;
  remote_run.threads = 1;
  remote_run.registry = &retrying;
  const engine::result_table table =
      engine::run_sweep(ctx, scenarios, remote_run).table;
  late_starter.join();
  EXPECT_EQ(table.to_csv(), local_csv)
      << "reconnected rows diverged from the local run";

  // Zero retries keeps the historical fail-on-first-error contract.
  service->stop();
  const engine::model_registry impatient = engine::remote_registry(socket_path);
  remote_run.registry = &impatient;
  EXPECT_THROW((void)engine::run_sweep(ctx, scenarios, remote_run),
               std::runtime_error);
}

TEST(ServiceResilience, IdlePooledConnectionsOutliveTheServerIoTimeout) {
  // The server's I/O timeout also bounds idle time, so it closes pooled
  // connections between sweeps.  A stale pooled connection reconnects
  // without spending a retry: even zero retries succeed.
  engine::service_options options;
  options.socket_path = fresh_socket_path("idle");
  options.threads = 1;
  options.io_timeout_sec = 0.2;
  engine::dl_service service(make_context("svc"), options);
  const engine::scenario_context ctx = make_context("svc");
  engine::sweep_spec spec;
  spec.models = {"dl"};
  spec.grid = {12};
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(spec, ctx);
  const engine::model_registry remote =
      engine::remote_registry(service.socket_path());
  engine::runner_options run;
  run.threads = 1;
  run.registry = &remote;
  const std::string first = engine::run_sweep(ctx, scenarios, run).table.to_csv();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_EQ(engine::run_sweep(ctx, scenarios, run).table.to_csv(), first);
  EXPECT_GE(service.connections_dropped(), 1u)
      << "the idle connection was never timed out";
  service.stop();
}

// ----------------------------------------------------- dl_shard end-to-end
//
// DLM_SHARD_BIN is the built dl_shard tool (wired in CMakeLists.txt).
// These drills run the real driver+workers: an injected crash under
// --allow-partial, the manifest contract, and retry-to-full-success.

#ifdef DLM_SHARD_BIN

int run_command(const std::string& command) {
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::vector<std::string> csv_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::size_t csv_index(const std::string& row) {
  return static_cast<std::size_t>(
      std::stoul(row.substr(0, row.find(','))));
}

/// Pulls "missing_indices": [a, b, ...] out of the manifest.
std::vector<std::size_t> manifest_missing(const std::string& json) {
  const std::string key = "\"missing_indices\": [";
  const std::size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos) << json;
  if (at == std::string::npos) return {};
  const std::size_t end = json.find(']', at);
  std::vector<std::size_t> out;
  std::istringstream in(json.substr(at + key.size(), end - at - key.size()));
  std::string token;
  while (std::getline(in, token, ','))
    if (token.find_first_of("0123456789") != std::string::npos)
      out.push_back(static_cast<std::size_t>(std::stoul(token)));
  return out;
}

TEST(ShardFaultDrill, CrashUnderAllowPartialMergesSurvivorsByteIdentically) {
  const std::string ref_csv = temp_path("drill_ref.csv").string();
  const std::string part_csv = temp_path("drill_part.csv").string();
  const std::string manifest_path = part_csv + ".manifest.json";
  const std::string bin = DLM_SHARD_BIN;

  ASSERT_EQ(run_command(bin + " --shards 1 --csv " + ref_csv +
                        " --bench-rates 6 >/dev/null 2>&1"),
            0);
  ASSERT_EQ(run_command(bin + " --shards 3 --csv " + part_csv +
                        " --bench-rates 6 --allow-partial"
                        " --fault crash:worker1@chunk0 >/dev/null 2>&1"),
            0)
      << "--allow-partial must exit 0 despite the crashed shard";

  const std::string manifest = read_file(manifest_path);
  EXPECT_NE(manifest.find("\"succeeded\": false"), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("killed by signal 6"), std::string::npos)
      << "diagnostic must name SIGABRT: " << manifest;
  const std::vector<std::size_t> missing = manifest_missing(manifest);
  ASSERT_FALSE(missing.empty());

  const std::vector<std::string> ref = csv_lines(read_file(ref_csv));
  const std::vector<std::string> part = csv_lines(read_file(part_csv));
  ASSERT_GT(ref.size(), 1u);
  EXPECT_EQ(part[0], ref[0]) << "CSV header diverged";
  EXPECT_EQ(part.size() + missing.size(), ref.size())
      << "rows + missing must cover the whole sweep exactly";

  // The merged subset is byte-identical to the unsharded rows, and the
  // manifest's missing indices are exactly the complement.
  const std::set<std::size_t> gone(missing.begin(), missing.end());
  std::size_t next = 1;
  for (std::size_t i = 1; i < ref.size(); ++i) {
    if (gone.count(csv_index(ref[i])) != 0) continue;
    ASSERT_LT(next, part.size());
    EXPECT_EQ(part[next], ref[i]) << "row " << csv_index(ref[i]);
    ++next;
  }
  EXPECT_EQ(next, part.size()) << "partial CSV has rows the reference lacks";

  std::filesystem::remove(ref_csv);
  std::filesystem::remove(part_csv);
  std::filesystem::remove(manifest_path);
}

TEST(ShardFaultDrill, RetriesTurnACrashIntoFullSuccess) {
  const std::string ref_csv = temp_path("retry_ref.csv").string();
  const std::string out_csv = temp_path("retry_out.csv").string();
  const std::string bin = DLM_SHARD_BIN;

  ASSERT_EQ(run_command(bin + " --shards 1 --csv " + ref_csv +
                        " --bench-rates 4 >/dev/null 2>&1"),
            0);
  // The crash is armed on attempt 1 only; --retries 1 re-runs the
  // worker, whose attempt 2 completes — full success, full merge.
  ASSERT_EQ(run_command(bin + " --shards 3 --csv " + out_csv +
                        " --bench-rates 4 --retries 1 --backoff 20"
                        " --fault 'crash:worker1@chunk0|tries=1'"
                        " >/dev/null 2>&1"),
            0);
  EXPECT_EQ(read_file(out_csv), read_file(ref_csv))
      << "a retried run must merge byte-identically to the unsharded run";
  std::filesystem::remove(ref_csv);
  std::filesystem::remove(out_csv);
}

TEST(ShardFaultDrill, HangedWorkerIsTimedOutAndReportedInTheManifest) {
  const std::string out_csv = temp_path("hang_out.csv").string();
  const std::string manifest_path = out_csv + ".manifest.json";
  const std::string bin = DLM_SHARD_BIN;

  ASSERT_EQ(run_command(bin + " --shards 2 --csv " + out_csv +
                        " --bench-rates 4 --allow-partial --timeout 2"
                        " --fault hang:worker1@chunk0 >/dev/null 2>&1"),
            0);
  const std::string manifest = read_file(manifest_path);
  EXPECT_NE(manifest.find("\"timed_out\": true"), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("timed out after"), std::string::npos) << manifest;
  EXPECT_FALSE(manifest_missing(manifest).empty());
  std::filesystem::remove(out_csv);
  std::filesystem::remove(manifest_path);
}

TEST(ShardFaultDrill, TornJournalWriteFailsTheWorkerAndRetrySucceeds) {
  const std::string ref_csv = temp_path("torn_ref.csv").string();
  const std::string out_csv = temp_path("torn_out.csv").string();
  const std::string cache = temp_path("torn.cache").string();
  const std::string bin = DLM_SHARD_BIN;

  ASSERT_EQ(run_command(bin + " --shards 1 --csv " + ref_csv +
                        " --bench-rates 4 >/dev/null 2>&1"),
            0);
  // Attempt 1 of every worker tears its first journal record and exits
  // nonzero (a latched journal error is a failed worker); attempt 2 is
  // fault-free and completes.
  ASSERT_EQ(run_command(bin + " --shards 2 --csv " + out_csv +
                        " --bench-rates 4 --cache-file " + cache +
                        " --journal --retries 1 --backoff 20"
                        " --fault 'torn-write:journal@rec0|tries=1'"
                        " >/dev/null 2>&1"),
            0);
  EXPECT_EQ(read_file(out_csv), read_file(ref_csv));
  std::filesystem::remove(ref_csv);
  std::filesystem::remove(out_csv);
  std::filesystem::remove(cache);
  std::filesystem::remove(engine::cache_journal_path(cache));
}

#endif  // DLM_SHARD_BIN

}  // namespace
