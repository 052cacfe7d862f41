#include "engine/scenario_runner.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/accuracy.h"
#include "engine/calibration.h"
#include "engine/thread_pool.h"
#include "social/distance.h"

namespace dlm::engine {
namespace {

using clock = std::chrono::steady_clock;

double elapsed_ms(clock::time_point start) {
  return std::chrono::duration<double, std::milli>(clock::now() - start)
      .count();
}

/// Solves through the cache when one is provided (the stored trace is
/// keyed on the scenario's canonical identity, so a repeat — in this
/// sweep or a later one — skips the PDE entirely).
model_trace solve_with_cache(const diffusion_model& model, const scenario& sc,
                             const dataset_slice& slice, solve_cache* cache) {
  if (cache == nullptr) return model.solve(sc, slice);
  const std::string key = scenario_cache_key(sc, slice, model);
  if (const std::shared_ptr<const model_trace> hit = cache->find_trace(key))
    return *hit;
  model_trace trace = model.solve(sc, slice);
  cache->store_trace(key, trace);
  return trace;
}

/// Everything that must match for two scenarios to share a lockstep
/// chunk.  The rate spec may differ (lanes share grid/dt, not rates) and
/// d/K overrides may differ (per-lane CN factorizations); seeds are
/// ignored because batch-capable models are deterministic PDE solves.
struct batch_key {
  std::string model;
  std::size_t slice = 0;
  core::dl_scheme scheme = core::dl_scheme::strang_cn;
  std::size_t points_per_unit = 0;
  double dt = 0.0;
  double t0 = 0.0;
  double t_end = 0.0;
  std::string domain;

  bool operator==(const batch_key&) const = default;
};

/// Mean prediction accuracy of a trace against the slice's observed
/// surface, over cells with a nonzero observation (paper Eq. 8
/// convention; zero-density cells carry no signal).  Returns
/// {accuracy, scored cell count}.
std::pair<double, std::size_t> score_trace(const model_trace& trace,
                                           const dataset_slice& slice) {
  double sum = 0.0;
  std::size_t cells = 0;
  for (std::size_t i = 0; i < trace.distances.size(); ++i) {
    for (std::size_t j = 0; j < trace.times.size(); ++j) {
      const double actual = slice.actual_at(trace.distances[i],
                                            static_cast<int>(trace.times[j]));
      if (actual <= 0.0) continue;
      sum += core::prediction_accuracy(trace.predicted[i][j], actual);
      ++cells;
    }
  }
  return {cells == 0 ? 0.0 : sum / static_cast<double>(cells), cells};
}

}  // namespace

std::vector<std::vector<std::size_t>> batch_sweep(
    std::span<const scenario> scenarios, const model_registry& registry,
    std::size_t batch_width) {
  const std::size_t width =
      batch_width == 0 ? kDefaultBatchWidth : batch_width;

  std::vector<std::vector<std::size_t>> chunks;
  if (width <= 1) {
    // Batching off: one chunk per scenario, already index-ordered.
    for (std::size_t i = 0; i < scenarios.size(); ++i) chunks.push_back({i});
    return chunks;
  }

  // First pass: index-stable grouping.  Groups form in first-occurrence
  // order and accumulate members in ascending index order, so nothing
  // downstream depends on how the sweep interleaved compatible
  // scenarios.  Non-batchable scenarios become chunks of one directly.
  struct group {
    batch_key key;
    std::vector<std::size_t> members;
  };
  std::vector<group> groups;
  std::vector<std::pair<std::string, bool>> capability_memo;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const scenario& sc = scenarios[i];
    bool batchable = false;
    const auto memo = std::find_if(
        capability_memo.begin(), capability_memo.end(),
        [&](const auto& entry) { return entry.first == sc.model; });
    if (memo != capability_memo.end()) {
      batchable = memo->second;
    } else {
      try {
        batchable = registry.make(sc.model)->supports_batch();
      } catch (...) {
        // Unknown model: leave it a chunk of one so run_sweep reports the
        // failure with the scenario's identity, as the scalar path does.
        batchable = false;
      }
      capability_memo.emplace_back(sc.model, batchable);
    }
    // Calibrate specs fit per scenario before solving; keep them scalar.
    if (batchable && is_calibrate_spec(sc.rate)) batchable = false;
    if (!batchable) {
      chunks.push_back({i});
      continue;
    }
    const batch_key key{sc.model, sc.slice, sc.scheme, sc.points_per_unit,
                        sc.dt,    sc.t0,    sc.t_end,  sc.domain};
    const auto it = std::find_if(
        groups.begin(), groups.end(),
        [&](const group& g) { return g.key == key; });
    if (it == groups.end())
      groups.push_back({key, {i}});
    else
      it->members.push_back(i);
  }

  // Second pass: split each group into width-sized chunks, then order
  // all chunks by first member so the work queue itself is index-stable.
  for (const group& g : groups) {
    for (std::size_t from = 0; from < g.members.size(); from += width) {
      const std::size_t to = std::min(from + width, g.members.size());
      chunks.emplace_back(g.members.begin() + static_cast<std::ptrdiff_t>(from),
                          g.members.begin() + static_cast<std::ptrdiff_t>(to));
    }
  }
  std::sort(chunks.begin(), chunks.end(),
            [](const std::vector<std::size_t>& a,
               const std::vector<std::size_t>& b) {
              return a.front() < b.front();
            });
  return chunks;
}

std::vector<scenario> expand_sweep(const sweep_spec& spec,
                                   const scenario_context& context,
                                   const model_registry& registry) {
  if (spec.models.empty())
    throw std::invalid_argument("expand_sweep: no models in sweep");
  if (spec.schemes.empty() || spec.grid.empty() || spec.dts.empty() ||
      spec.rates.empty() || spec.domains.empty())
    throw std::invalid_argument("expand_sweep: empty sweep axis");

  std::vector<std::size_t> slices = spec.slices;
  if (slices.empty()) {
    for (std::size_t i = 0; i < context.slice_count(); ++i)
      slices.push_back(i);
  }
  if (slices.empty())
    throw std::invalid_argument("expand_sweep: context has no slices");
  for (const std::size_t s : slices) (void)context.slice(s);  // bounds check

  // Canonical single values for the axes a model ignores, so the cross
  // product never enqueues duplicate work.
  const std::vector<core::dl_scheme> no_scheme = {core::dl_scheme::strang_cn};
  const std::vector<std::size_t> no_grid = {0};
  const std::vector<double> no_dt = {0.0};

  std::vector<scenario> scenarios;
  for (const std::string& model_name : spec.models) {
    const std::unique_ptr<diffusion_model> model = registry.make(model_name);
    const auto& schemes = model->uses_scheme() ? spec.schemes : no_scheme;
    const auto& grids = model->uses_grid() ? spec.grid : no_grid;
    const auto& dts = model->uses_scheme() ? spec.dts : no_dt;
    // The rate axis, with calibrate specs collapsed to "preset" for
    // rate-using models that cannot calibrate and spatial forms collapsed
    // to their temporal base for models without a spatial-rate axis (then
    // deduplicated, so {"preset", "calibrate"} does not enqueue the
    // preset run twice).
    std::vector<std::string> rates;
    if (!model->uses_rate()) {
      rates = {"-"};
    } else {
      for (const std::string& rate : spec.rates) {
        std::string resolved =
            is_calibrate_spec(rate) && !model->supports_calibration()
                ? "preset"
                : rate;
        if (is_spatial_rate_spec(resolved) && !model->supports_spatial_rate())
          resolved = spatial_base_spec(resolved);
        if (std::find(rates.begin(), rates.end(), resolved) == rates.end())
          rates.push_back(std::move(resolved));
      }
    }
    // The domain axis: collapsed to {"line"} for models without a domain
    // axis, otherwise validated eagerly (a bad spec fails the expansion,
    // not a pool worker mid-sweep) and deduplicated — every line-spelling
    // ("line", "", "-") canonicalizes to "line".
    std::vector<std::string> domains;
    for (const std::string& dom : model->supports_domain()
                                      ? spec.domains
                                      : std::vector<std::string>{"line"}) {
      std::string resolved = make_domain(dom).is_line() ? "line" : dom;
      if (std::find(domains.begin(), domains.end(), resolved) ==
          domains.end())
        domains.push_back(std::move(resolved));
    }
    for (const std::size_t slice : slices) {
      for (const core::dl_scheme scheme : schemes) {
        for (const std::size_t grid : grids) {
          for (const double dt : dts) {
            for (const std::string& rate : rates) {
              for (const std::string& dom : domains) {
                // Non-line domains solve with strang-cn only; skip the
                // combos other schemes would reject instead of enqueuing
                // guaranteed failures.
                if (dom != "line" &&
                    scheme != core::dl_scheme::strang_cn)
                  continue;
                scenario sc;
                sc.model = model_name;
                sc.slice = slice;
                sc.scheme = scheme;
                sc.points_per_unit = grid;
                sc.dt = dt;
                sc.rate = rate;
                sc.domain = dom;
                sc.t0 = spec.t0;
                sc.t_end = spec.t_end;
                sc.seed = spec.seed;
                scenarios.push_back(std::move(sc));
              }
            }
          }
        }
      }
    }
  }
  return scenarios;
}

sweep_result run_sweep(const scenario_context& context,
                       std::span<const scenario> scenarios,
                       const runner_options& options) {
  const model_registry& registry =
      options.registry != nullptr ? *options.registry : default_registry();
  const clock::time_point sweep_start = clock::now();

  // The explicit grouping step: every chunk runs as one pool task, so
  // compatible scenarios of batch-capable models advance in lockstep on
  // one worker while everything else stays a chunk of one.  With a
  // non-trivial shard spec only the chunks this shard owns run — whole
  // chunks, so the lockstep grouping inside the shard is exactly the
  // unsharded run's.
  const std::vector<std::vector<std::size_t>> chunks =
      shard_chunks(batch_sweep(scenarios, registry, options.batch_width),
                   scenarios, options.shard);

  // Owned global indices (ascending) and the global→row-slot mapping.
  // Rows keep their global sweep index, so shard tables merge back into
  // the unsharded table byte-identically (engine::merge_tables).
  std::vector<std::size_t> owned;
  for (const std::vector<std::size_t>& chunk : chunks)
    owned.insert(owned.end(), chunk.begin(), chunk.end());
  std::sort(owned.begin(), owned.end());
  std::vector<std::size_t> local(scenarios.size(), 0);
  for (std::size_t slot = 0; slot < owned.size(); ++slot)
    local[owned[slot]] = slot;

  sweep_result result;
  std::vector<result_row> rows(owned.size());
  if (options.keep_traces) result.traces.resize(owned.size());

  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::size_t first_error_index = 0;

  {
    thread_pool pool(options.threads);

    const auto record_error = [&](std::size_t i) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      // Keep the failure of the lowest scenario index so the error —
      // like the rows — is deterministic across thread schedules.
      if (!first_error || i < first_error_index) {
        first_error = std::current_exception();
        first_error_index = i;
      }
    };

    // Every row is built here, for both paths; `cal` is set only on the
    // scalar path (calibrate specs never batch).
    const auto fill_row = [&](std::size_t i, const scenario& sc,
                              const scenario_calibration* cal,
                              const diffusion_model& model,
                              const dataset_slice& slice, model_trace& trace,
                              double wall) {
      const auto [accuracy, cells] = score_trace(trace, slice);
      result_row& row = rows[local[i]];
      row.index = i;
      row.model = sc.model;
      row.slice = slice.name;
      row.story = slice.story;
      row.metric = social::to_string(slice.metric);
      row.scheme = model.uses_scheme() ? core::to_string(sc.scheme) : "-";
      row.points_per_unit = model.uses_grid() ? sc.points_per_unit : 0;
      // The dt actually used, so rows stay truthful when a scheme
      // clamps for stability (FTCS on fine grids).
      row.dt = model.uses_scheme() ? trace.effective_dt : 0.0;
      row.rate = model.uses_rate() ? sc.rate : "-";
      row.resolved_rate =
          model.uses_rate()
              ? (cal != nullptr ? cal->resolved_rate
                                : resolve_rate_spec(sc.rate, slice.metric))
              : "-";
      row.t0 = sc.t0;
      row.t_end = sc.t_end;
      row.domain = trace.domain;
      row.cells = cells;
      row.accuracy = accuracy;
      row.wall_ms = wall;
      if (cal != nullptr) {
        row.fit_d = cal->fit.params.d;
        row.fit_k = cal->fit.params.k;
        row.fit_a = cal->fit_a;
        row.fit_b = cal->fit_b;
        row.fit_c = cal->fit_c;
        row.fit_m = cal->multipliers;
        row.fit_sse = cal->fit.sse;
        row.fit_evals = cal->fit.evaluations;
        row.fit_solves = cal->fit.pde_solves;
        row.fit_hits = cal->fit.cache_hits;
      }
      if (options.keep_traces) result.traces[local[i]] = std::move(trace);
    };

    const auto solve_one = [&](std::size_t i) {
      const scenario& sc = scenarios[i];
      const dataset_slice& slice = context.slice(sc.slice);
      const std::unique_ptr<diffusion_model> model = registry.make(sc.model);
      const clock::time_point start = clock::now();

      // Calibrate rate specs fit first, then solve the rewritten
      // scenario.  The coarse lattice fans back out over this same pool
      // — run_batch has the submitting worker participate, so a nested
      // batch cannot deadlock even with every worker busy calibrating.
      const prepared_solve prepared = prepare_solve(
          *model, sc, slice, options.calibration, options.cache, &pool);
      model_trace trace =
          solve_with_cache(*model, prepared.solved, slice, options.cache);
      fill_row(i, sc,
               prepared.calibration ? &*prepared.calibration : nullptr,
               *model, slice, trace, elapsed_ms(start));
    };

    const auto run_scalar = [&](std::size_t i) {
      try {
        solve_one(i);
      } catch (...) {
        record_error(i);
      }
    };

    // A multi-lane chunk: resolve cached traces per member, hand the
    // misses to the model's lockstep solve_batch in one call, and charge
    // every lane an equal share of the chunk's wall time.  Any failure
    // falls back to per-member scalar solves so the error is attributed
    // to the exact scenario and healthy lanes still produce rows.
    const auto run_chunk = [&](const std::vector<std::size_t>& chunk) {
      if (chunk.size() == 1) {
        run_scalar(chunk.front());
        return;
      }
      try {
        const scenario& first = scenarios[chunk.front()];
        const dataset_slice& slice = context.slice(first.slice);
        const std::unique_ptr<diffusion_model> model =
            registry.make(first.model);
        const clock::time_point start = clock::now();

        std::vector<std::shared_ptr<const model_trace>> cached(chunk.size());
        std::vector<std::string> keys(chunk.size());
        std::vector<scenario> misses;
        std::vector<std::size_t> miss_pos;
        for (std::size_t m = 0; m < chunk.size(); ++m) {
          const scenario& sc = scenarios[chunk[m]];
          if (options.cache != nullptr) {
            keys[m] = scenario_cache_key(sc, slice, *model);
            cached[m] = options.cache->find_trace(keys[m]);
          }
          if (cached[m] == nullptr) {
            misses.push_back(sc);
            miss_pos.push_back(m);
          }
        }

        std::vector<model_trace> fresh;
        if (!misses.empty()) fresh = model->solve_batch(misses, slice);
        if (options.cache != nullptr)
          for (std::size_t t = 0; t < miss_pos.size(); ++t)
            options.cache->store_trace(keys[miss_pos[t]], fresh[t]);

        const double wall =
            elapsed_ms(start) / static_cast<double>(chunk.size());
        std::size_t next = 0;
        for (std::size_t m = 0; m < chunk.size(); ++m) {
          const scenario& sc = scenarios[chunk[m]];
          model_trace trace =
              cached[m] != nullptr ? *cached[m] : std::move(fresh[next++]);
          fill_row(chunk[m], sc, nullptr, *model, slice, trace, wall);
        }
      } catch (...) {
        for (const std::size_t i : chunk) run_scalar(i);
      }
    };

    for (std::size_t c = 0; c < chunks.size(); ++c)
      pool.submit([&, c] {
        if (options.on_chunk_start) options.on_chunk_start(c);
        run_chunk(chunks[c]);
      });
    pool.wait();
  }
  if (first_error) {
    const scenario& sc = scenarios[first_error_index];
    std::string slice_name = "<bad slice index " +
                             std::to_string(sc.slice) + ">";
    if (sc.slice < context.slice_count())
      slice_name = context.slice(sc.slice).name;
    try {
      std::rethrow_exception(first_error);
    } catch (const std::exception& e) {
      // Wrap with the failing scenario's identity so a 1-in-500 sweep
      // failure is diagnosable; non-std exceptions propagate unwrapped.
      throw std::runtime_error(
          "run_sweep: scenario #" + std::to_string(first_error_index) +
          " (model '" + sc.model + "', slice '" + slice_name +
          "') failed: " + e.what());
    }
  }

  result.table = result_table(std::move(rows));
  result.wall_ms = elapsed_ms(sweep_start);
  return result;
}

sweep_result run_sweep(const scenario_context& context, const sweep_spec& spec,
                       const runner_options& options) {
  const model_registry& registry =
      options.registry != nullptr ? *options.registry : default_registry();
  const std::vector<scenario> scenarios =
      expand_sweep(spec, context, registry);
  return run_sweep(context, scenarios, options);
}

}  // namespace dlm::engine
