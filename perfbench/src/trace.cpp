#include "trace.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

#include "engine/diffusion_model.h"
#include "engine/scenario.h"

namespace perfbench {

namespace engine = dlm::engine;

recorder::recorder() : origin_(std::chrono::steady_clock::now()) {}

double recorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::size_t recorder::thread_index() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return threads_.try_emplace(std::this_thread::get_id(), threads_.size() + 1)
      .first->second;
}

std::size_t recorder::add(span s) {
  const std::lock_guard<std::mutex> lock(mutex_);
  s.id = spans_.size() + 1;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void recorder::chunk_started(std::size_t chunk) {
  const double t = now();
  const std::size_t thread = thread_index();
  const std::lock_guard<std::mutex> lock(mutex_);
  starts_.push_back({chunk, thread, t});
}

std::vector<span> recorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<chunk_start> recorder::chunk_starts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return starts_;
}

std::vector<solve_span> recorder::solve_spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<solve_span> out;
  for (const span& s : spans_)
    if (s.name == "solve") out.push_back({s.thread, s.start, s.end});
  return out;
}

std::string domain_family(const std::string& label) {
  if (label.starts_with("grid2d")) return "grid2d";
  if (label.starts_with("comm")) return "comm";
  return "line";
}

namespace {

/// Solver nodes × time steps of one solved scenario: the x axis at the
/// scenario's grid resolution, times the domain's stacked rows, times the
/// steps of its effective dt over the window.  0 for grid-free models.
double node_steps(const engine::diffusion_model& model,
                  const engine::scenario& sc,
                  const engine::dataset_slice& slice,
                  const engine::model_trace& trace) {
  if (!model.uses_grid() || !(trace.effective_dt > 0.0)) return 0.0;
  const double ppu = static_cast<double>(sc.points_per_unit);
  const double x_nodes =
      std::lround(ppu * (slice.base_params.x_max - slice.base_params.x_min)) +
      1.0;
  const double blocks = static_cast<double>(
      engine::make_domain(trace.domain).blocks(sc.points_per_unit));
  const double steps = std::ceil((sc.t_end - sc.t0) / trace.effective_dt);
  return x_nodes * blocks * steps;
}

/// Forwards every call to the wrapped built-in model and times the solves.
class timed_model final : public engine::diffusion_model {
 public:
  timed_model(std::unique_ptr<engine::diffusion_model> inner, recorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}

  std::string name() const override { return inner_->name(); }
  bool uses_scheme() const override { return inner_->uses_scheme(); }
  bool uses_grid() const override { return inner_->uses_grid(); }
  bool uses_rate() const override { return inner_->uses_rate(); }
  bool supports_spatial_rate() const override {
    return inner_->supports_spatial_rate();
  }
  bool supports_calibration() const override {
    return inner_->supports_calibration();
  }
  bool supports_domain() const override { return inner_->supports_domain(); }
  bool supports_batch() const override { return inner_->supports_batch(); }

  engine::model_trace solve(const engine::scenario& sc,
                            const engine::dataset_slice& slice) const override {
    span s = begin(sc);
    engine::model_trace trace = inner_->solve(sc, slice);
    s.end = rec_.now();
    s.lanes = 1;
    s.tag = trace.domain;
    s.node_steps = node_steps(*inner_, sc, slice, trace);
    rec_.add(std::move(s));
    return trace;
  }

  std::vector<engine::model_trace> solve_batch(
      std::span<const engine::scenario> scenarios,
      const engine::dataset_slice& slice) const override {
    if (scenarios.empty()) return inner_->solve_batch(scenarios, slice);
    span s = begin(scenarios.front());
    std::vector<engine::model_trace> traces =
        inner_->solve_batch(scenarios, slice);
    s.end = rec_.now();
    s.lanes = scenarios.size();
    if (!traces.empty()) s.tag = traces.front().domain;
    for (std::size_t i = 0; i < traces.size(); ++i)
      s.node_steps += node_steps(*inner_, scenarios[i], slice, traces[i]);
    rec_.add(std::move(s));
    return traces;
  }

 private:
  span begin(const engine::scenario& sc) const {
    span s;
    s.name = "solve";
    s.thread = rec_.thread_index();
    s.key = sc.rate;
    s.start = rec_.now();
    return s;
  }

  std::unique_ptr<engine::diffusion_model> inner_;
  recorder& rec_;
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

engine::model_registry make_traced_registry(recorder& rec) {
  engine::model_registry registry;
  for (const std::string& name : engine::default_registry().names()) {
    registry.register_model(name, [name, &rec] {
      return std::make_unique<timed_model>(
          engine::default_registry().make(name), rec);
    });
  }
  return registry;
}

std::vector<span> with_chunks(std::vector<span> spans,
                              const std::vector<chunk_span>& chunks) {
  std::size_t next_id = spans.size() + 1;
  for (const chunk_span& c : chunks) {
    span chunk;
    chunk.id = next_id++;
    chunk.name = "chunk";
    chunk.tag = std::to_string(c.chunk);
    chunk.thread = c.thread;
    chunk.start = c.start;
    chunk.end = c.end;
    for (span& s : spans)
      if (s.name == "solve" && s.thread == c.thread && s.start >= c.start &&
          s.end <= c.end)
        s.parent = chunk.id;
    spans.push_back(std::move(chunk));
  }
  return spans;
}

void write_chrome_trace(const std::vector<span>& spans,
                        const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\": %.3f, \"dur\": %.3f",
                  s.start * 1e6, (s.end - s.start) * 1e6);
    out << "  {\"name\": " << json_string(s.name) << ", \"ph\": \"X\", "
        << times << ", \"pid\": 1, \"tid\": " << s.thread
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"tag\": " << json_string(s.tag) << ", \"lanes\": " << s.lanes
        << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace perfbench
