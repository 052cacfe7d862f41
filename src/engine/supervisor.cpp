#include "engine/supervisor.h"

#include <signal.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "engine/fault.h"

namespace dlm::engine {
namespace {

using clock = std::chrono::steady_clock;

constexpr double kMaxWaitMs = 1e3 * kMaxSupervisorWaitSec;

/// Live supervision state of one worker.
struct worker_state {
  const worker_command* command = nullptr;
  pid_t pid = -1;  ///< -1 while not running
  std::size_t attempts = 0;
  clock::time_point deadline;  ///< per-attempt timeout (when enabled)
  clock::time_point retry_at;  ///< earliest next launch (backoff)
  bool waiting_retry = false;
  bool done = false;
  worker_outcome outcome;
};

pid_t launch(const worker_command& command, std::size_t attempt) {
  const pid_t pid = ::fork();
  if (pid < 0)
    throw std::runtime_error("supervise: fork failed for " + command.label +
                             ": " + ::strerror(errno));
  if (pid > 0) {
    // Both sides set the group so it exists before either the child's
    // exec or a kill_and_reap; EACCES after the child's exec is harmless.
    ::setpgid(pid, pid);
    return pid;
  }

  // Child.  Only async-signal-safe-ish work before exec; on any failure
  // _exit (never return into the parent's stack).  The worker leads its
  // own process group, so a kill reaches every helper it forks.
  ::setpgid(0, 0);
  ::setenv(kWorkerAttemptEnv, std::to_string(attempt).c_str(), 1);

  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(command.exe.c_str()));
  for (const std::string& arg : command.args)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  ::execv(command.exe.c_str(), argv.data());
  std::fprintf(stderr, "supervise: exec '%s' failed: %s\n",
               command.exe.c_str(), ::strerror(errno));
  ::_exit(127);
}

std::string describe_wait_status(int status) {
  if (WIFEXITED(status))
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = ::strsignal(sig);
    return "killed by signal " + std::to_string(sig) + " (" +
           (name != nullptr ? name : "unknown") + ")";
  }
  return "ended with wait status " + std::to_string(status);
}

/// SIGKILLs a running worker's whole process group — the worker and any
/// descendants it forked — and reaps the worker (blocking — the kill
/// makes the wait prompt).
void kill_and_reap(worker_state& w) {
  if (w.pid < 0) return;
  ::kill(-w.pid, SIGKILL);
  int status = 0;
  while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
  }
  w.pid = -1;
}

/// Forwards `sig` to every running worker's process group, gives them a
/// moment to exit, then SIGKILLs and reaps whatever is left.
void forward_and_reap(std::vector<worker_state>& workers, int sig) {
  for (const worker_state& w : workers)
    if (w.pid > 0) ::kill(-w.pid, sig);
  const clock::time_point grace_end = clock::now() + std::chrono::seconds(1);
  for (worker_state& w : workers) {
    int status = 0;
    while (w.pid > 0 && ::waitpid(w.pid, &status, WNOHANG) != w.pid) {
      if (clock::now() >= grace_end) kill_and_reap(w);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    w.pid = -1;
  }
}

/// The SIGINT/SIGTERM a supervise call caught (0: none).  One supervise
/// runs per process at a time: it owns these two dispositions.
volatile std::sig_atomic_t caught_signal = 0;

extern "C" void note_signal(int sig) { caught_signal = sig; }

/// Catches SIGINT and SIGTERM while workers run, unless the caller
/// ignores them.  Workers lead their own process groups, so a terminal's
/// interrupt reaches only the supervising process; it must forward it.
class signal_catcher {
 public:
  signal_catcher() {
    caught_signal = 0;
    struct sigaction act {};
    act.sa_handler = note_signal;
    act.sa_flags = SA_RESTART;
    sigemptyset(&act.sa_mask);
    for (std::size_t i = 0; i < 2; ++i) {
      ::sigaction(kSignals[i], nullptr, &previous_[i]);
      installed_[i] = previous_[i].sa_handler != SIG_IGN;
      if (installed_[i]) ::sigaction(kSignals[i], &act, nullptr);
    }
  }
  ~signal_catcher() { restore(); }
  signal_catcher(const signal_catcher&) = delete;
  signal_catcher& operator=(const signal_catcher&) = delete;

  void restore() {
    for (std::size_t i = 0; i < 2; ++i)
      if (installed_[i]) ::sigaction(kSignals[i], &previous_[i], nullptr);
    installed_[0] = installed_[1] = false;
  }

 private:
  static constexpr int kSignals[2] = {SIGINT, SIGTERM};
  struct sigaction previous_[2] {};
  bool installed_[2] = {false, false};
};

}  // namespace

supervision_report supervise(std::span<const worker_command> commands,
                             const supervisor_options& options) {
  // Every wait below must convert to a steady_clock::duration.
  if (!(options.timeout_sec >= 0.0 &&
        options.timeout_sec <= kMaxSupervisorWaitSec))
    throw std::invalid_argument(
        "supervise: timeout_sec must lie in [0, 1e9] seconds");
  if (!(options.backoff_initial_ms >= 0.0 &&
        std::isfinite(options.backoff_initial_ms)))
    throw std::invalid_argument(
        "supervise: backoff must be finite and non-negative");
  std::vector<worker_state> workers(commands.size());
  for (std::size_t i = 0; i < commands.size(); ++i) {
    workers[i].command = &commands[i];
    workers[i].outcome.label = commands[i].label;
  }

  const auto start_attempt = [&options](worker_state& w) {
    ++w.attempts;
    w.outcome.attempts = w.attempts;
    w.pid = launch(*w.command, w.attempts);
    w.waiting_retry = false;
    if (options.timeout_sec > 0)
      w.deadline = clock::now() + std::chrono::duration_cast<clock::duration>(
                                      std::chrono::duration<double>(
                                          options.timeout_sec));
  };

  // A failed attempt either schedules a retry or finalizes the outcome.
  // Returns true when the worker is finally failed (retries exhausted).
  const auto attempt_failed = [&options](worker_state& w,
                                         std::string diagnostic,
                                         bool timed_out) {
    w.pid = -1;
    w.outcome.timed_out = timed_out;
    if (w.attempts <= options.max_retries) {
      // Capped as it grows: doubling past ~1000 retries would reach inf,
      // whose duration_cast is undefined.
      double backoff = std::min(options.backoff_initial_ms, kMaxWaitMs);
      for (std::size_t r = 1; r < w.attempts; ++r)
        backoff =
            std::min(backoff * kSupervisorBackoffMultiplier, kMaxWaitMs);
      std::fprintf(stderr,
                   "supervise: %s %s (attempt %zu); retrying in %.0f ms\n",
                   w.command->label.c_str(), diagnostic.c_str(), w.attempts,
                   backoff);
      w.retry_at = clock::now() + std::chrono::duration_cast<clock::duration>(
                                      std::chrono::duration<double,
                                                            std::milli>(
                                          backoff));
      w.waiting_retry = true;
      return false;
    }
    w.done = true;
    w.outcome.succeeded = false;
    w.outcome.diagnostic = std::move(diagnostic) + " (attempt " +
                           std::to_string(w.attempts) + " of " +
                           std::to_string(options.max_retries + 1) + ")";
    return true;
  };

  // Take every still-live worker down after a fail-fast trigger.
  const auto terminate_survivors = [&workers](const std::string& culprit) {
    for (worker_state& w : workers) {
      if (w.done) continue;
      kill_and_reap(w);
      w.done = true;
      w.outcome.succeeded = false;
      w.outcome.diagnostic =
          "terminated: sibling worker " + culprit + " failed";
    }
  };

  signal_catcher catcher;
  for (worker_state& w : workers) start_attempt(w);

  // Reap/timeout poll granularity.
  const auto poll_sleep = std::chrono::milliseconds(10);
  while (true) {
    if (const int interrupt = caught_signal; interrupt != 0) {
      forward_and_reap(workers, interrupt);
      for (worker_state& w : workers) {
        if (w.done) continue;
        w.done = true;
        w.outcome.diagnostic =
            "interrupted by signal " + std::to_string(interrupt);
      }
      break;
    }
    bool any_live = false;
    for (worker_state& w : workers) {
      if (w.done) continue;
      any_live = true;

      if (w.waiting_retry) {
        if (clock::now() >= w.retry_at) start_attempt(w);
        continue;
      }

      int status = 0;
      const pid_t reaped = ::waitpid(w.pid, &status, WNOHANG);
      if (reaped == w.pid) {
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
          w.pid = -1;
          w.done = true;
          w.outcome.succeeded = true;
          continue;
        }
        if (attempt_failed(w, describe_wait_status(status),
                           /*timed_out=*/false) &&
            options.fail_fast) {
          terminate_survivors(w.command->label);
          break;
        }
        continue;
      }
      if (reaped < 0 && errno != EINTR && errno != EAGAIN) {
        // Lost track of the child (should not happen): fail the worker
        // rather than spin forever.
        if (attempt_failed(w, std::string("waitpid failed: ") +
                                  ::strerror(errno),
                           /*timed_out=*/false) &&
            options.fail_fast) {
          terminate_survivors(w.command->label);
          break;
        }
        continue;
      }

      if (options.timeout_sec > 0 && clock::now() >= w.deadline) {
        kill_and_reap(w);
        char buf[64];
        std::snprintf(buf, sizeof buf, "timed out after %g s (killed)",
                      options.timeout_sec);
        if (attempt_failed(w, buf, /*timed_out=*/true) && options.fail_fast) {
          terminate_survivors(w.command->label);
          break;
        }
      }
    }
    if (!any_live) break;
    std::this_thread::sleep_for(poll_sleep);
  }
  // Every worker is reaped: report an interrupt (even one that arrived as
  // the last worker finished) for the caller to clean up and re-raise.
  catcher.restore();
  supervision_report report;
  report.interrupted_by = caught_signal;
  report.outcomes.reserve(workers.size());
  for (worker_state& w : workers) report.outcomes.push_back(w.outcome);
  return report;
}

}  // namespace dlm::engine
