// Span recording for the traced benchmark run.
//
// All spans come from the benchmark's own code, around calls into the
// program's layers; the program itself is not instrumented.  The solver
// layer is observed through `timed_model`, a decorator registered under
// the built-in names in a copy of the model registry and handed to the
// program through runner_options::registry / service_options::registry,
// so every model solve the engine performs is timed without touching
// engine code.  Spans stay in memory and are written out once, when the
// run ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/model_registry.h"
#include "stats.h"

namespace perfbench {

/// One recorded span.  Times are seconds since the recorder's origin.
struct span {
  std::size_t id = 0;
  std::size_t parent = 0;  ///< 0: no parent
  std::string name;        ///< "solve", "chunk", "sweep", "request", ...
  std::string tag;         ///< solve: domain label; request: its kind
  std::size_t thread = 0;
  double start = 0.0;
  double end = 0.0;
  std::size_t lanes = 0;     ///< solve: scenarios advanced by the call
  double node_steps = 0.0;   ///< solve: Σ nodes × time steps over lanes
  std::string key;           ///< solve: the first lane's rate spec
};

/// Thread-safe in-memory span and hook log.  Hooks run on pool and
/// service threads concurrently, so every append takes the mutex; the
/// solves they bracket are orders of magnitude longer than the lock.
class recorder {
 public:
  recorder();
  recorder(const recorder&) = delete;
  recorder& operator=(const recorder&) = delete;

  /// Seconds since construction on the steady clock.
  [[nodiscard]] double now() const;
  /// Small dense index of the calling thread (first seen → 1, 2, ...).
  [[nodiscard]] std::size_t thread_index();

  /// Appends a finished span and returns its id.
  std::size_t add(span s);
  /// The runner_options::on_chunk_start hook body.
  void chunk_started(std::size_t chunk);

  [[nodiscard]] std::vector<span> spans() const;
  [[nodiscard]] std::vector<chunk_start> chunk_starts() const;
  /// The "solve" spans as reconstruct_chunks() inputs.
  [[nodiscard]] std::vector<solve_span> solve_spans() const;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::unordered_map<std::thread::id, std::size_t> threads_;
  std::vector<span> spans_;
  std::vector<chunk_start> starts_;
};

/// A copy of the built-in registry whose every model is wrapped in a
/// timing decorator that records one "solve" span per solve() /
/// solve_batch() call into `rec`.  Results are the wrapped model's,
/// untouched.  `rec` must outlive the registry and every model it makes.
[[nodiscard]] dlm::engine::model_registry make_traced_registry(recorder& rec);

/// "line", "comm" or "grid2d" for a trace's canonical domain label.
[[nodiscard]] std::string domain_family(const std::string& label);

/// `spans` plus one "chunk" span per reconstructed chunk, with each
/// solve span's parent set to the chunk that ran it.
[[nodiscard]] std::vector<span> with_chunks(std::vector<span> spans,
                                            const std::vector<chunk_span>& chunks);

/// Writes the spans as Chrome trace-event JSON (viewable in
/// ui.perfetto.dev): one complete event per span, threads as tracks.
void write_chrome_trace(const std::vector<span>& spans,
                        const std::string& path);

}  // namespace perfbench
