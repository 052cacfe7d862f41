// Estimators and span reconstruction used by the benchmark.
//
// Everything here is a pure function of its inputs so the benchmark's
// own tests (tests/bench_test.cpp) can pin it on known samples:
//
//  * summarize()   — median plus the first and third quartile, computed
//                    exactly like Python's statistics.quantiles(n=4)
//                    (the "exclusive" method), with the sample count;
//  * percentile()  — nearest-rank percentile, the estimator behind the
//                    p50/p99 figures;
//  * interquartile_mean() — mean of the middle half, the central latency
//                    the bounded metric uses: a request's round trip is
//                    bimodal on a VM (two wake-up paths whose shares drift
//                    with host load), and a median sitting between the
//                    modes jumps when the shares cross 50%, where this
//                    moves in proportion;
//  * reconstruct_chunks() / profile_runner() — rebuild per-chunk spans
//                    of a run_sweep call from the on_chunk_start
//                    timestamps and the timed solve spans, and derive
//                    the pool's busy fraction and tail from them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median and quartiles of one metric's samples within a run.
struct summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

[[nodiscard]] inline double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Median and statistics.quantiles(samples, n=4) quartiles.  One sample
/// reports itself for all three.
[[nodiscard]] inline summary summarize(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("summary of no samples");
  std::sort(samples.begin(), samples.end());
  summary s;
  s.n = samples.size();
  s.median = median(samples);
  if (s.n == 1) {
    s.q1 = s.q3 = samples.front();
    return s;
  }
  // Python's exclusive method: m = n + 1, j = floor(i·m/4) clamped to
  // [1, n−1], delta = i·m − 4j, q_i = (x[j−1]·(4−delta) + x[j]·delta)/4.
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = s.n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, s.n - 1);
    const double delta =
        static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    return (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

/// Nearest-rank percentile: the smallest sample with at least p percent
/// of the samples at or below it.  p in (0, 100].
[[nodiscard]] inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty())
    throw std::invalid_argument("percentile of no samples");
  if (!(p > 0.0 && p <= 100.0))
    throw std::invalid_argument("percentile outside (0, 100]");
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1,
                              samples.size()) -
      1;
  return samples[index];
}

/// Mean of the sorted samples with index in [n/4, n − n/4): the middle
/// half (all of them below four samples).
[[nodiscard]] inline double interquartile_mean(std::vector<double> samples) {
  if (samples.empty())
    throw std::invalid_argument("interquartile mean of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t lo = samples.size() / 4;
  const std::size_t hi = samples.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += samples[i];
  return sum / static_cast<double>(hi - lo);
}

[[nodiscard]] inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

// ------------------------------------------------ runner reconstruction

/// runner_options::on_chunk_start fired for `chunk` on pool thread
/// `thread` at time `t` (seconds on the benchmark's clock).
struct chunk_start {
  std::size_t chunk = 0;
  std::size_t thread = 0;
  double t = 0.0;
};

/// A timed model solve (one solve() or solve_batch() call).
struct solve_span {
  std::size_t thread = 0;
  double start = 0.0;
  double end = 0.0;
};

/// One reconstructed chunk: it starts at its hook and ends at the end of
/// the last solve span its thread recorded before starting another chunk
/// (a chunk without a solve — every lane a cache hit — ends where it
/// started).  `solve_s` is the time its solve spans cover.
struct chunk_span {
  std::size_t chunk = 0;
  std::size_t thread = 0;
  double start = 0.0;
  double end = 0.0;
  double solve_s = 0.0;
  [[nodiscard]] double duration() const { return end - start; }
};

/// Pool threads run their chunks one after another (a nested calibration
/// batch only drains its own lattice), so on each thread every solve
/// span belongs to the latest chunk started before it.  Solve spans
/// before a thread's first chunk are ignored.  Result ordered by chunk.
[[nodiscard]] inline std::vector<chunk_span> reconstruct_chunks(
    std::vector<chunk_start> starts, const std::vector<solve_span>& solves) {
  std::sort(starts.begin(), starts.end(),
            [](const chunk_start& a, const chunk_start& b) {
              return a.thread != b.thread ? a.thread < b.thread : a.t < b.t;
            });
  std::map<std::size_t, std::vector<const solve_span*>> by_thread;
  for (const solve_span& s : solves) by_thread[s.thread].push_back(&s);

  std::vector<chunk_span> chunks;
  chunks.reserve(starts.size());
  for (std::size_t k = 0; k < starts.size(); ++k) {
    const chunk_start& c = starts[k];
    const bool has_next =
        k + 1 < starts.size() && starts[k + 1].thread == c.thread;
    const double window_end = has_next ? starts[k + 1].t : INFINITY;
    chunk_span span{c.chunk, c.thread, c.t, c.t, 0.0};
    for (const solve_span* s : by_thread[c.thread]) {
      if (s->start < c.t || s->start >= window_end) continue;
      span.end = std::max(span.end, s->end);
      span.solve_s += s->end - s->start;
    }
    chunks.push_back(span);
  }
  std::sort(chunks.begin(), chunks.end(),
            [](const chunk_span& a, const chunk_span& b) {
              return a.chunk < b.chunk;
            });
  return chunks;
}

/// Pool-level view of one run_sweep call spanning [wall_start, wall_end]
/// on `threads` pool threads.
struct runner_profile {
  /// Chunk time over threads × wall.
  double busy_frac = 0.0;
  /// Wall end minus the moment the second-to-last thread went idle (a
  /// thread goes idle when its last chunk ends; a thread that ran no
  /// chunk was idle from the start).  0 with fewer than two threads.
  double tail_s = 0.0;
  /// Longest chunk.
  double chunk_max_s = 0.0;
};

[[nodiscard]] inline runner_profile profile_runner(
    const std::vector<chunk_span>& chunks, double wall_start, double wall_end,
    std::size_t threads) {
  runner_profile p;
  const double wall = wall_end - wall_start;
  if (threads == 0 || !(wall > 0.0)) return p;
  std::map<std::size_t, double> idle_at;
  double busy = 0.0;
  for (const chunk_span& c : chunks) {
    busy += c.duration();
    p.chunk_max_s = std::max(p.chunk_max_s, c.duration());
    double& idle = idle_at.try_emplace(c.thread, wall_start).first->second;
    idle = std::max(idle, c.end);
  }
  p.busy_frac = busy / (static_cast<double>(threads) * wall);
  if (threads >= 2) {
    std::vector<double> idle;
    for (const auto& [thread, t] : idle_at) idle.push_back(t);
    while (idle.size() < threads) idle.push_back(wall_start);
    std::sort(idle.begin(), idle.end());
    p.tail_s = wall_end - idle[idle.size() - 2];
  }
  return p;
}

}  // namespace perfbench
