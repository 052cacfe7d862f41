#include "layers.h"

#include <map>
#include <memory>

#include "engine/cache_io.h"
#include "engine/calibration.h"

namespace perfbench {

namespace engine = dlm::engine;

cache_observation::cache_observation(engine::solve_cache& cache)
    : cache_(cache) {
  cache_.set_write_observer([this](const std::string& key,
                                   const engine::model_trace* trace,
                                   const double*) {
    const std::lock_guard<std::mutex> lock(mutex_);
    (trace != nullptr ? trace_keys_ : value_keys_).push_back(key);
  });
}

cache_observation::~cache_observation() { cache_.set_write_observer({}); }

std::vector<std::string> cache_observation::trace_keys() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return trace_keys_;
}

std::vector<std::string> cache_observation::value_keys() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return value_keys_;
}

void report_core(report& rep, const std::vector<span>& spans) {
  std::size_t lanes = 0;
  std::size_t calls = 0;
  double busy = 0.0;
  double node_steps = 0.0;
  std::map<std::string, std::vector<double>> lane_ms;
  for (const span& s : spans) {
    if (s.name != "solve") continue;
    const double seconds = s.end - s.start;
    ++calls;
    lanes += s.lanes;
    busy += seconds;
    node_steps += s.node_steps;
    lane_ms[domain_family(s.tag)].push_back(
        1e3 * seconds / static_cast<double>(std::max<std::size_t>(s.lanes, 1)));
  }
  rep.value("core.solves", "count", static_cast<double>(lanes));
  rep.value("core.busy_s", "s", busy);
  for (const char* family : {"line", "comm", "grid2d"})
    rep.samples(std::string("core.solve_ms.") + family, "ms", lane_ms[family]);
  rep.value("core.batch_lanes_mean", "count",
            calls == 0 ? 0.0
                       : static_cast<double>(lanes) / static_cast<double>(calls));
  rep.value("core.node_steps_per_s", "1/s", busy > 0.0 ? node_steps / busy : 0.0);
}

void report_cache(report& rep, engine::solve_cache& cache,
                  const cache_observation& seen,
                  const std::filesystem::path& workdir) {
  const engine::cache_stats stats = cache.stats();
  const std::size_t lookups = stats.hits + stats.misses;
  rep.value("cache.lookups", "count", static_cast<double>(lookups));
  rep.value("cache.hit_ratio", "ratio",
            lookups == 0 ? 0.0
                         : static_cast<double>(stats.hits) /
                               static_cast<double>(lookups));

  const std::vector<std::string> traces = seen.trace_keys();
  const std::vector<std::string> values = seen.value_keys();
  const std::size_t inserts = traces.size() + values.size();
  rep.value("cache.inserts", "count", static_cast<double>(inserts));
  double key_bytes = 0.0;
  for (const std::string& k : traces) key_bytes += static_cast<double>(k.size());
  for (const std::string& k : values) key_bytes += static_cast<double>(k.size());
  rep.value("cache.key_bytes_mean", "bytes",
            inserts == 0 ? 0.0 : key_bytes / static_cast<double>(inserts));

  // Replay every stored key: the lookup path on a warm cache.
  std::size_t found = 0;
  const clock_type::time_point replay = clock_type::now();
  for (const std::string& k : traces) found += cache.find_trace(k) ? 1 : 0;
  for (const std::string& k : values) found += cache.find_value(k) ? 1 : 0;
  const double replay_s = seconds_since(replay);
  rep.value("cache.lookup_us", "us",
            inserts == 0 ? 0.0 : 1e6 * replay_s / static_cast<double>(inserts));
  rep.check("cache: every recorded key replays as a hit", found == inserts,
            std::to_string(found) + " of " + std::to_string(inserts));

  const std::filesystem::path file = workdir / "layer.cache";
  const clock_type::time_point save = clock_type::now();
  engine::save_cache(cache, file);
  rep.value("cache.save_ms", "ms", 1e3 * seconds_since(save));
  rep.value("cache.file_bytes", "bytes",
            static_cast<double>(std::filesystem::file_size(file)));
  engine::solve_cache loaded;
  const clock_type::time_point load = clock_type::now();
  const engine::cache_load_result result = engine::load_cache(loaded, file);
  rep.value("cache.load_ms", "ms", 1e3 * seconds_since(load));
  rep.check("cache: saved file loads back whole",
            result.loaded && loaded.size() == cache.size(), result.error);
  std::filesystem::remove(file);
}

std::vector<chunk_span> report_runner(report& rep, const recorder& rec,
                                      double wall_start, double wall_end,
                                      std::size_t threads,
                                      std::size_t expected_chunks,
                                      const std::vector<bool>& calibrate) {
  const std::vector<chunk_span> chunks =
      reconstruct_chunks(rec.chunk_starts(), rec.solve_spans());
  rep.value("runner.chunks", "count", static_cast<double>(chunks.size()));
  rep.check("runner: hooks saw every batch_sweep chunk",
            chunks.size() == expected_chunks,
            std::to_string(chunks.size()) + " hooks, " +
                std::to_string(expected_chunks) + " chunks");
  const runner_profile profile =
      profile_runner(chunks, wall_start, wall_end, threads);
  rep.value("runner.busy_frac", "ratio", profile.busy_frac);
  rep.value("runner.tail_s", "s", profile.tail_s);
  rep.value("runner.chunk_ms_max", "ms", 1e3 * profile.chunk_max_s);
  double calibrate_s = 0.0;
  for (const chunk_span& c : chunks)
    if (c.chunk < calibrate.size() && calibrate[c.chunk])
      calibrate_s += c.duration() - c.solve_s;
  rep.value("runner.calibrate_s", "s", calibrate_s);
  return chunks;
}

double dl_accuracy(const engine::result_table& table) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const engine::result_row& row : table.rows()) {
    if (row.model != "dl") continue;
    sum += row.accuracy;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::vector<bool> calibrate_chunks(
    std::span<const engine::scenario> scenarios,
    const std::vector<std::vector<std::size_t>>& chunks,
    const engine::model_registry& registry) {
  std::vector<bool> flags(chunks.size(), false);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    if (chunks[c].size() != 1) continue;
    const engine::scenario& sc = scenarios[chunks[c].front()];
    const std::unique_ptr<engine::diffusion_model> model =
        registry.make(sc.model);
    flags[c] = model->uses_rate() && model->supports_calibration() &&
               engine::is_calibrate_spec(sc.rate);
  }
  return flags;
}

}  // namespace perfbench
