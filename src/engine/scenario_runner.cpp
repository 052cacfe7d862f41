#include "engine/scenario_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
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

/// Everything that must match for two scenarios to share a lockstep
/// chunk.  Solve groups: the rate spec may differ (lanes share grid/dt,
/// not rates) and d/K overrides may differ (per-lane CN factorizations);
/// seeds are ignored because batch-capable models are deterministic PDE
/// solves.  Calibrate groups span slices instead and share the exact
/// calibrate spec (so the fit family and window rule match).
struct batch_key {
  std::string model;
  /// Solve groups: the slice every lane solves on.  Calibrate groups:
  /// how many earlier scenarios of the group's key used the same slice,
  /// so a chunk never holds one slice twice and no two lanes of a
  /// lockstep calibration search the same fit.
  std::size_t slice = 0;
  std::string calibrate;  ///< the calibrate spec; empty for solve groups
  core::dl_scheme scheme = core::dl_scheme::strang_cn;
  std::size_t points_per_unit = 0;
  double dt = 0.0;
  double t0 = 0.0;
  double t_end = 0.0;
  std::string domain;

  bool operator==(const batch_key&) const = default;
};

/// What batch_sweep needs to know of a model.
struct model_caps {
  bool batch = false;              ///< supports_batch
  bool calibrate = false;          ///< uses_rate && supports_calibration
  bool calibrate_spatial = false;  ///< ... && supports_spatial_rate
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
  std::vector<std::pair<std::string, model_caps>> capability_memo;
  std::vector<batch_key> calibrate_slices;  // calibrate key + own slice
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const scenario& sc = scenarios[i];
    auto memo = std::find_if(
        capability_memo.begin(), capability_memo.end(),
        [&](const auto& entry) { return entry.first == sc.model; });
    if (memo == capability_memo.end()) {
      model_caps caps;
      try {
        const std::unique_ptr<diffusion_model> model = registry.make(sc.model);
        caps.batch = model->supports_batch();
        caps.calibrate = model->uses_rate() && model->supports_calibration();
        caps.calibrate_spatial =
            caps.calibrate && model->supports_spatial_rate();
      } catch (...) {
        // Unknown model: leave it a chunk of one so run_sweep reports the
        // failure with the scenario's identity, as the scalar path does.
      }
      memo = capability_memo.emplace(capability_memo.end(), sc.model, caps);
    }
    const model_caps& caps = memo->second;
    batch_key key{sc.model, sc.slice, {},    sc.scheme, sc.points_per_unit,
                  sc.dt,    sc.t0,    sc.t_end, sc.domain};
    if (is_calibrate_spec(sc.rate)) {
      // Calibrate specs fit in lockstep across slices; a model that
      // cannot fit this spec keeps a chunk of one, where prepare_solves
      // reports the missing capability for exactly this scenario.
      if (!(sc.rate.starts_with("calibrate-spatial") ? caps.calibrate_spatial
                                                      : caps.calibrate)) {
        chunks.push_back({i});
        continue;
      }
      key.calibrate = sc.rate;
      calibrate_slices.push_back(key);
      key.slice = static_cast<std::size_t>(std::count(
                      calibrate_slices.begin(), calibrate_slices.end(), key)) -
                  1;
    } else if (!caps.batch) {
      chunks.push_back({i});
      continue;
    }
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
  // A calibrate group is dealt round-robin instead, so its chunks differ
  // in size by at most one (and slices alternating between two x-ranges,
  // as a dataset's hop/interest pairs do, land one range per chunk: one
  // lockstep group per round).
  for (const group& g : groups) {
    if (!g.key.calibrate.empty()) {
      const std::size_t lanes =
          batch_width == 0 ? kDefaultCalibrateWidth : width;
      const std::size_t count = (g.members.size() + lanes - 1) / lanes;
      for (std::size_t c = 0; c < count; ++c) {
        std::vector<std::size_t>& chunk = chunks.emplace_back();
        for (std::size_t m = c; m < g.members.size(); m += count)
          chunk.push_back(g.members[m]);
      }
      continue;
    }
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

    // Every row is built here; `cal` is set for calibrated scenarios.
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
      }
      if (options.keep_traces) result.traces[local[i]] = std::move(trace);
    };

    // One chunk, of any width: prepare its scenarios (fitting their
    // calibrate specs in lockstep — rounds that need several solve calls,
    // like the coarse lattice, fan back out over this same pool;
    // run_batch has the submitting worker participate, so a nested batch
    // cannot deadlock even with every worker busy calibrating), resolve
    // cached traces per member, hand the misses to the model's
    // solve_batch — one call per slice, in first-occurrence order — and
    // charge every lane an equal share of the chunk's wall time.  Returns
    // false on failure; a chunk of one records the error against its
    // scenario.
    const std::size_t width = std::max<std::size_t>(
        options.batch_width == 0 ? kDefaultBatchWidth : options.batch_width,
        1);
    const auto run_chunk = [&](std::span<const std::size_t> chunk) {
      try {
        const std::unique_ptr<diffusion_model> model =
            registry.make(scenarios[chunk.front()].model);
        const clock::time_point start = clock::now();
        const std::size_t lanes = chunk.size();
        std::vector<scenario> members;
        std::vector<const dataset_slice*> slices;
        for (const std::size_t i : chunk) {
          members.push_back(scenarios[i]);
          slices.push_back(&context.slice(scenarios[i].slice));
        }
        const std::vector<prepared_solve> prepared =
            prepare_solves(*model, members, slices, options.calibration,
                           options.cache, &pool, width);

        std::vector<std::shared_ptr<const model_trace>> cached(lanes);
        std::vector<std::string> keys(lanes);
        std::vector<model_trace> traces(lanes);
        std::vector<bool> pending(lanes, true);
        if (options.cache != nullptr) {
          for (std::size_t m = 0; m < lanes; ++m) {
            keys[m] =
                scenario_cache_key(prepared[m].solved, *slices[m], *model);
            cached[m] = options.cache->find_trace(keys[m]);
            pending[m] = cached[m] == nullptr;
          }
        }
        for (std::size_t m = 0; m < lanes; ++m) {
          if (!pending[m]) continue;
          std::vector<std::size_t> batch;
          std::vector<scenario> solved;
          for (std::size_t k = m; k < lanes; ++k) {
            if (!pending[k] || slices[k] != slices[m]) continue;
            batch.push_back(k);
            solved.push_back(prepared[k].solved);
            pending[k] = false;
          }
          std::vector<model_trace> fresh = model->solve_batch(solved, *slices[m]);
          for (std::size_t b = 0; b < batch.size(); ++b) {
            if (options.cache != nullptr)
              options.cache->store_trace(std::move(keys[batch[b]]), fresh[b]);
            traces[batch[b]] = std::move(fresh[b]);
          }
        }

        const double wall = elapsed_ms(start) / static_cast<double>(lanes);
        for (std::size_t m = 0; m < lanes; ++m) {
          const std::optional<scenario_calibration>& cal =
              prepared[m].calibration;
          model_trace trace =
              cached[m] != nullptr ? *cached[m] : std::move(traces[m]);
          fill_row(chunk[m], scenarios[chunk[m]], cal ? &*cal : nullptr,
                   *model, *slices[m], trace, wall);
        }
        return true;
      } catch (...) {
        if (chunk.size() == 1) record_error(chunk.front());
        return false;
      }
    };

    // The pool queue, costliest chunk first (summed scenario_cost, the
    // shard plan's estimate; stable, so ties keep chunk order) — the
    // longest chunks start first instead of setting the tail.
    std::vector<std::uint64_t> cost(chunks.size(), 0);
    for (std::size_t c = 0; c < chunks.size(); ++c)
      for (const std::size_t i : chunks[c]) cost[c] += scenario_cost(scenarios[i]);
    std::vector<std::size_t> order(chunks.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cost[a] > cost[b];
                     });
    for (const std::size_t c : order)
      pool.submit([&, c] {
        if (options.on_chunk_start) options.on_chunk_start(c);
        // A failing multi-lane chunk reruns as chunks of one, so the
        // error is attributed to the exact scenario and healthy lanes
        // still produce rows.
        if (!run_chunk(chunks[c]) && chunks[c].size() > 1)
          for (const std::size_t& i : chunks[c]) run_chunk({&i, 1});
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
