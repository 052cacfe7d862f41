// paper_calibrate: the paper's fit-then-predict pipeline as one sweep.

#include <cmath>

#include "engine/scenario_runner.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace engine = dlm::engine;
using dlm::core::dl_scheme;

namespace {

constexpr std::size_t kThreads = 4;

engine::sweep_spec make_spec() {
  engine::sweep_spec spec;
  spec.models = engine::default_registry().names();
  spec.schemes = {dl_scheme::ftcs, dl_scheme::strang_cn,
                  dl_scheme::implicit_newton, dl_scheme::mol_rk4};
  spec.grid = {20};
  spec.rates = {"preset", "calibrate", "calibrate-spatial"};
  return spec;
}

engine::runner_options make_options() {
  engine::runner_options options;
  options.threads = kThreads;
  options.calibration.coarse_steps = 3;
  return options;
}

void untraced(const run_config& config, report& rep) {
  // Set-up: one dataset per derived seed, each build timed.
  std::vector<double> setup_s;
  std::vector<engine::scenario_context> contexts;
  for (std::size_t d = 0; d < kDatasets; ++d) {
    const clock_type::time_point start = clock_type::now();
    contexts.push_back(make_digg_context(dataset_seed(config.seed, d)));
    setup_s.push_back(seconds_since(start));
  }
  const engine::scenario_context rebuilt = make_digg_context(config.seed);
  bool same = rebuilt.slice_count() == contexts[0].slice_count();
  for (std::size_t s = 0; same && s < rebuilt.slice_count(); ++s)
    same = rebuilt.slice(s).fingerprint == contexts[0].slice(s).fingerprint;
  rep.check("setup: the dataset build is deterministic", same);

  const engine::sweep_spec spec = make_spec();
  engine::runner_options options = make_options();
  std::vector<double> walls_ms;
  std::vector<double> rates;
  std::vector<std::string> first_csv(kDatasets);
  std::vector<double> accuracy(kDatasets, 0.0);
  std::size_t mismatches = 0;
  std::size_t wrong_size = 0;
  std::size_t sweeps = 0;
  const clock_type::time_point begin = clock_type::now();
  // Sweep the datasets round-robin until the time is up, each at least
  // once; a repeat of a dataset must reproduce its first CSV exactly.
  do {
    const std::size_t d = sweeps++ % kDatasets;
    engine::solve_cache cache;
    options.cache = &cache;
    const clock_type::time_point start = clock_type::now();
    const engine::sweep_result result =
        engine::run_sweep(contexts[d], spec, options);
    const double wall = seconds_since(start);
    walls_ms.push_back(1e3 * wall);
    rates.push_back(static_cast<double>(result.table.size()) / wall);
    rep.operations(result.table.size(), 0);
    const std::string csv = result.table.to_csv();
    if (first_csv[d].empty()) {
      first_csv[d] = csv;
      accuracy[d] = dl_accuracy(result.table);
      wrong_size += result.table.size() == 128 ? 0 : 1;
    } else if (csv != first_csv[d]) {
      ++mismatches;
    }
  } while (seconds_since(begin) < config.seconds || sweeps < kDatasets);

  const double mean_accuracy = mean(accuracy);
  rep.check("sweep: a repeated dataset's CSV is byte-identical",
            mismatches == 0, std::to_string(mismatches) + " differ");
  rep.check("sweep: 128 scenarios per dataset", wrong_size == 0);
  rep.check("sweep: DL accuracy is a finite share",
            std::isfinite(mean_accuracy) && mean_accuracy > 0.0 &&
                mean_accuracy <= 1.0);
  rep.note("sweeps", std::to_string(sweeps));
  rep.samples("setup_s", "s", setup_s);
  rep.samples("scenarios_per_s", "1/s", rates);
  rep.value("p50_ms", "ms", percentile(walls_ms, 50));
  rep.value("iqm_ms", "ms", interquartile_mean(walls_ms));
  rep.value("p99_ms", "ms", percentile(walls_ms, 99));
  rep.value("peak_rss_mb", "MiB", self_peak_rss_mb());
  rep.value("mean_accuracy", "ratio", mean_accuracy);
}

void traced(const run_config& config, report& rep) {
  const clock_type::time_point setup = clock_type::now();
  const engine::scenario_context context = make_digg_context(config.seed);
  rep.value("setup.dataset_ms", "ms", 1e3 * seconds_since(setup));
  const engine::sweep_spec spec = make_spec();

  // The untraced reference: default registry, no hooks, no observer.
  engine::runner_options plain = make_options();
  engine::solve_cache plain_cache;
  plain.cache = &plain_cache;
  const clock_type::time_point plain_start = clock_type::now();
  const engine::sweep_result reference = engine::run_sweep(context, spec, plain);
  const std::string reference_csv = reference.table.to_csv();
  const double plain_s = seconds_since(plain_start);

  recorder rec;
  const engine::model_registry registry = make_traced_registry(rec);
  engine::solve_cache cache;
  const cache_observation seen(cache);
  engine::runner_options options = make_options();
  options.registry = &registry;
  options.cache = &cache;
  options.on_chunk_start = [&rec](std::size_t chunk) {
    rec.chunk_started(chunk);
  };

  const double traced_start = rec.now();
  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(spec, context, registry);
  const std::vector<std::vector<std::size_t>> chunks =
      engine::batch_sweep(scenarios, registry, options.batch_width);
  const double expanded = rec.now();
  const engine::sweep_result result =
      engine::run_sweep(context, scenarios, options);
  const double swept = rec.now();
  const std::string csv = result.table.to_csv();
  const double rendered = rec.now();
  rep.operations(reference.table.size() + result.table.size(), 0);

  rep.check("trace: CSV is byte-identical untraced vs traced",
            csv == reference_csv);
  rep.value("runner.expand_ms", "ms", 1e3 * (expanded - traced_start));
  rep.value("runner.csv_ms", "ms", 1e3 * (rendered - swept));
  const std::vector<chunk_span> chunk_spans =
      report_runner(rep, rec, expanded, swept, kThreads, chunks.size(),
                    calibrate_chunks(scenarios, chunks, registry));
  const std::vector<span> spans = rec.spans();
  report_core(rep, spans);
  std::size_t lanes = 0;
  for (const span& s : spans) lanes += s.lanes;
  rep.check("cache: one trace insert per solved lane",
            seen.trace_keys().size() == lanes,
            std::to_string(seen.trace_keys().size()) + " inserts, " +
                std::to_string(lanes) + " lanes");
  report_cache(rep, cache, seen, config.workdir);
  rep.value("trace.overhead_frac", "ratio",
            (rendered - traced_start - plain_s) / plain_s);
  if (!config.trace_out.empty())
    write_chrome_trace(with_chunks(spans, chunk_spans), config.trace_out);
}

}  // namespace

void run_paper_calibrate(const run_config& config, report& rep) {
  if (config.trace)
    traced(config, rep);
  else
    untraced(config, rep);
}

}  // namespace perfbench
