// Supervised process fan-out for sharded sweeps.
//
// The original dl_shard driver spawned one worker per shard and did a
// blocking waitpid on each in order: a crashed worker surfaced as a bare
// exit status, a hung worker blocked the driver forever, and siblings of
// a failed worker kept burning CPU on a sweep whose merge was already
// doomed.  The supervisor replaces that loop with a real failure domain:
//
//  * every worker runs under a per-attempt wall-clock timeout — a hung
//    worker is SIGKILLed and reported as such, never waited on forever;
//  * a crashed worker's diagnostic names the signal (strsignal) and the
//    worker's label, not just a raw wait status;
//  * failures are retried up to max_retries times with a backoff that
//    doubles per retry, and the attempt number is exported to the child
//    through the DLM_WORKER_ATTEMPT environment variable (engine/fault.h
//    reads it back, so injected faults can be armed per attempt);
//  * with fail_fast (the default) the first worker to exhaust its
//    retries takes the rest down: siblings are SIGKILLed and reaped —
//    no orphans, no zombies; with fail_fast off the survivors run to
//    completion and the report says exactly who finished, so the caller
//    can merge the completed subset (dl_shard --allow-partial);
//  * each worker leads its own process group, and every kill targets the
//    group, so helpers a worker forks die with it; a SIGINT or SIGTERM
//    the supervising process receives is forwarded to every live group,
//    the workers are reaped, the caller's disposition is restored, and
//    the report names the signal (supervision_report::interrupted_by) so
//    the caller can clean up before it re-raises.
//
// Determinism note: supervision changes *scheduling*, never *bytes*.  A
// worker either completes its shard (whose output is deterministic) or
// contributes nothing; retries re-run the identical command.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace dlm::engine {

/// One worker process to supervise.
struct worker_command {
  /// Executable path (execv'd, not PATH-searched).
  std::string exe;
  /// Arguments *after* argv[0] (argv[0] is `exe`).  The child inherits
  /// the environment, with DLM_WORKER_ATTEMPT set on top.
  std::vector<std::string> args;
  /// Human-readable name used in diagnostics ("worker 1/3").
  std::string label;
};

/// Longest wait supervise schedules, in seconds (about 31 years, the cap
/// of dl_serve --io-timeout): any wait up to it converts to a
/// steady_clock::duration without overflow.
inline constexpr double kMaxSupervisorWaitSec = 1e9;

/// Growth factor of the retry backoff: each retry waits twice as long as
/// the one before.  dl_shard's --retries/--backoff check assumes it.
inline constexpr double kSupervisorBackoffMultiplier = 2.0;

struct supervisor_options {
  /// Per-attempt wall-clock timeout in seconds; 0 disables (a worker
  /// may then legitimately run forever, as the old driver allowed).
  /// Must lie in [0, kMaxSupervisorWaitSec].
  double timeout_sec = 0.0;
  /// Retries after the first failed attempt (so max_retries = 2 means
  /// up to 3 attempts).
  std::size_t max_retries = 0;
  /// Backoff before retry r is initial * kSupervisorBackoffMultiplier^(r-1)
  /// milliseconds, capped at kMaxSupervisorWaitSec.  Must be finite and
  /// >= 0.
  double backoff_initial_ms = 100.0;
  /// First worker to exhaust its retries SIGKILLs and reaps all other
  /// running workers (their outcome reports the termination).  Off for
  /// --allow-partial, where survivors should finish and be merged.
  bool fail_fast = true;
};

/// Final state of one supervised worker.
struct worker_outcome {
  std::string label;
  bool succeeded = false;
  /// Attempts actually started (1-based; 0 only for a worker terminated
  /// by fail_fast before its first attempt could be judged — it still
  /// records the attempts it ran).
  std::size_t attempts = 0;
  /// True when the last attempt hit the wall-clock timeout.
  bool timed_out = false;
  /// Why the worker failed — names the signal, exit status, timeout, or
  /// fail-fast termination.  Empty on success.
  std::string diagnostic;
};

struct supervision_report {
  /// One outcome per input command, in input order.
  std::vector<worker_outcome> outcomes;
  /// The SIGINT or SIGTERM that interrupted the run (0: none).  Every
  /// worker is reaped by then and the caller's disposition restored; the
  /// caller ends itself by this signal (std::raise) once it has cleaned
  /// up, as it would have ended without workers.
  int interrupted_by = 0;

  [[nodiscard]] bool all_succeeded() const {
    for (const worker_outcome& o : outcomes)
      if (!o.succeeded) return false;
    return true;
  }
  /// Outcomes of the workers that failed, in input order.
  [[nodiscard]] std::vector<worker_outcome> failures() const {
    std::vector<worker_outcome> out;
    for (const worker_outcome& o : outcomes)
      if (!o.succeeded) out.push_back(o);
    return out;
  }
};

/// Runs every command to completion (or exhausted retries / fail-fast
/// termination) and reports per-worker outcomes.  All workers of a
/// round run concurrently; a retry waits out its backoff without
/// blocking siblings.  Throws std::invalid_argument for options out of
/// range (checked before any worker starts) and std::runtime_error only
/// for supervisor bookkeeping failures (fork failing outright), never for
/// worker failures — those are data, in the report.
supervision_report supervise(std::span<const worker_command> commands,
                             const supervisor_options& options);

}  // namespace dlm::engine
