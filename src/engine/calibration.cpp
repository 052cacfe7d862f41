#include "engine/calibration.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "engine/format.h"

namespace dlm::engine {
namespace {

constexpr std::string_view kCalibrate = "calibrate";

/// "v=<d>,<K>[,<a>,<b>,<c>]" at full precision — the per-probe part of a
/// value-cache key.
std::string vector_suffix(std::span<const double> v) {
  std::string out = "|v=";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += format_full_precision(v[i]);
  }
  return out;
}

}  // namespace

bool is_calibrate_spec(const std::string& spec) {
  if (!spec.starts_with(kCalibrate)) return false;
  std::string_view rest = std::string_view(spec).substr(kCalibrate.size());
  if (rest.starts_with("-fixed")) {
    rest = rest.substr(sizeof("-fixed") - 1);
  } else if (rest.starts_with("-spatial")) {
    rest = rest.substr(sizeof("-spatial") - 1);
  }
  return rest.empty() || rest.front() == ':';
}

calibrate_spec parse_calibrate_spec(const std::string& spec, double t0,
                                    double t_end, int horizon_hours) {
  if (!is_calibrate_spec(spec))
    throw std::invalid_argument("parse_calibrate_spec: '" + spec +
                                "' is not a calibration spec");
  calibrate_spec info;
  std::string_view rest = std::string_view(spec).substr(kCalibrate.size());
  if (rest.starts_with("-fixed")) {
    info.fit_rate = false;
    rest = rest.substr(sizeof("-fixed") - 1);
  } else if (rest.starts_with("-spatial")) {
    // Per-hop multipliers on top of the preset r(t): the temporal factor
    // is kept, space is fitted.
    info.fit_rate = false;
    info.fit_spatial = true;
    rest = rest.substr(sizeof("-spatial") - 1);
  }

  const int first_hour = static_cast<int>(std::floor(t0)) + 1;
  const int last_hour =
      std::min(static_cast<int>(std::floor(t_end)), horizon_hours);
  if (first_hour > last_hour)
    throw std::invalid_argument(
        "parse_calibrate_spec: no observed hours in (t0, t_end] for '" + spec +
        "'");

  if (rest.empty()) {
    // Auto split: fit on the first half of the evaluation window.
    info.fit_end = std::clamp(
        static_cast<int>(std::ceil((t0 + t_end) / 2.0)), first_hour, last_hour);
    return info;
  }

  const std::string_view digits = rest.substr(1);  // skip ':'
  int hour = 0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), hour);
  if (ec != std::errc{} || ptr != digits.data() + digits.size())
    throw std::invalid_argument(
        "parse_calibrate_spec: bad fit-window hour in '" + spec + "'");
  if (hour < first_hour || hour > last_hour)
    throw std::invalid_argument(
        "parse_calibrate_spec: fit-window hour " + std::to_string(hour) +
        " outside observed hours [" + std::to_string(first_hour) + ", " +
        std::to_string(last_hour) + "] for '" + spec + "'");
  info.fit_end = hour;
  return info;
}

scenario_calibration calibrate_scenario(const scenario& sc,
                                        const dataset_slice& slice,
                                        const fit::calibration_options& base,
                                        solve_cache* cache, thread_pool* pool) {
  const calibrate_spec info =
      parse_calibrate_spec(sc.rate, sc.t0, sc.t_end, slice.horizon_hours);

  // The early observation window: hour-t0 profile plus every observed
  // hour up to the fit split.
  fit::observation_window window;
  window.t0 = sc.t0;
  window.initial = slice.profile_at(static_cast<int>(sc.t0));
  const int first_hour = static_cast<int>(std::floor(sc.t0)) + 1;
  for (int t = first_hour; t <= info.fit_end; ++t)
    window.times.push_back(static_cast<double>(t));
  window.observed.resize(window.initial.size());
  for (int x = 1; x <= slice.max_distance; ++x) {
    for (int t = first_hour; t <= info.fit_end; ++t)
      window.observed[static_cast<std::size_t>(x - 1)].push_back(
          slice.actual_at(x, t));
  }

  fit::calibration_options options = base;
  options.fit_rate = info.fit_rate;
  options.spatial_groups =
      info.fit_spatial ? static_cast<std::size_t>(slice.max_distance) : 0;
  // The solver configuration comes from the scenario; calibrate_dl
  // applies the same per-d FTCS stability clamp the adapter will use for
  // the final solve, so fitted parameters and fit_sse describe the
  // discretization the row actually runs.
  options.solver = core::dl_solver_options{};
  options.solver.scheme = sc.scheme;
  options.solver.points_per_unit = sc.points_per_unit;
  options.solver.dt = sc.dt;

  if (cache != nullptr) {
    // Objective values depend on the slice, the solver configuration and
    // the fit window — everything below — plus the probed vector, which
    // each hook appends.
    std::string prefix = "cal|slice=" + slice.name + '#' +
                         std::to_string(slice.fingerprint) +
                         "|model=" + sc.model;
    prefix += "|scheme=" + core::to_string(sc.scheme);
    prefix += "|grid=" + std::to_string(sc.points_per_unit);
    prefix += "|dt=" + format_full_precision(options.solver.dt);
    // Distinguish the three fit families: their probe vectors have
    // different layouts (and, for -fixed vs -spatial, different models
    // behind equal-length (d, K) lattice prefixes).
    if (info.fit_rate) {
      prefix += "|rate=fit";
    } else if (info.fit_spatial) {
      prefix += "|rate=fit-m:" + resolve_rate_spec("preset", slice.metric);
    } else {
      prefix += "|rate=" + resolve_rate_spec("preset", slice.metric);
    }
    prefix += "|t0=" + format_full_precision(sc.t0);
    prefix += "|fit_end=" + std::to_string(info.fit_end);
    // Same convention as scenario_cache_key: non-line domains suffix
    // their canonical label, line keys stay byte-identical to before the
    // domain axis existed.
    {
      const core::domain dom = make_domain(sc.domain);
      if (!dom.is_line()) prefix += "|domain=" + dom.label();
    }
    options.cache_find = [cache, prefix](std::span<const double> v) {
      return cache->find_value(prefix + vector_suffix(v));
    };
    options.cache_store = [cache, prefix](std::span<const double> v,
                                          double value) {
      cache->store_value(prefix + vector_suffix(v), value);
    };
  }
  if (pool != nullptr) {
    options.run_batch = [pool](std::vector<std::function<void()>> tasks) {
      pool->run_batch(std::move(tasks));
    };
  }

  // Start from the slice's base parameters, but fit against the rate the
  // engine solve will actually use: dl_adapter always derives the rate
  // from the spec, so a custom base_params.r never reaches the solve and
  // must not steer the (d, K) fit either.
  core::dl_parameters start = slice.base_params;
  if (!info.fit_rate) start.r = make_rate("preset", slice.metric);
  start.dom = make_domain(sc.domain);

  scenario_calibration result;
  result.fit = fit::calibrate_dl(window, start, options);
  if (info.fit_rate) {
    result.fit_a = result.fit.x[2];
    result.fit_b = result.fit.x[3];
    result.fit_c = result.fit.x[4];
    result.resolved_rate = "decay:" + format_full_precision(result.fit_a) + ',' +
                           format_full_precision(result.fit_b) + ',' +
                           format_full_precision(result.fit_c);
  } else if (info.fit_spatial) {
    // The fitted separable field as a concrete spec: full precision so
    // the re-parsed rate — and the cache key built from it — is exact.
    result.multipliers.assign(result.fit.x.begin() + 2, result.fit.x.end());
    result.resolved_rate = "spatial:" +
                           resolve_rate_spec("preset", slice.metric) + '|' +
                           join_full_precision(result.multipliers);
  } else {
    result.resolved_rate = resolve_rate_spec("preset", slice.metric);
  }
  return result;
}

scenario_calibration diffusion_model::calibrate(
    const scenario& sc, const dataset_slice& slice,
    const fit::calibration_options& options, solve_cache* cache,
    thread_pool* pool) const {
  return calibrate_scenario(sc, slice, options, cache, pool);
}

prepared_solve prepare_solve(const diffusion_model& model, const scenario& sc,
                             const dataset_slice& slice,
                             const fit::calibration_options& options,
                             solve_cache* cache, thread_pool* pool) {
  prepared_solve prepared{sc, std::nullopt};
  if (!model.uses_rate() || !is_calibrate_spec(sc.rate)) return prepared;
  if (!model.supports_calibration())
    throw std::invalid_argument("model '" + sc.model +
                                "' does not support calibrate rate specs");
  if (sc.rate.starts_with("calibrate-spatial") &&
      !model.supports_spatial_rate())
    throw std::invalid_argument("model '" + sc.model +
                                "' does not support spatial rate specs");
  const scenario_calibration& cal = prepared.calibration.emplace(
      model.calibrate(sc, slice, options, cache, pool));
  prepared.solved.rate = cal.resolved_rate;
  prepared.solved.d_override = cal.fit.params.d;
  prepared.solved.k_override = cal.fit.params.k;
  return prepared;
}

}  // namespace dlm::engine
