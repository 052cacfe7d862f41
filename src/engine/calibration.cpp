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

  // Compared as doubles before any int cast (see
  // diffusion_model::evaluation_times).
  const double first = std::floor(t0) + 1.0;
  const double last =
      std::min(std::floor(t_end), static_cast<double>(horizon_hours));
  if (!(first >= 1.0 && first <= last))
    throw std::invalid_argument(
        "parse_calibrate_spec: no observed hours in (t0, t_end] for '" + spec +
        "'");
  const int first_hour = static_cast<int>(first);
  const int last_hour = static_cast<int>(last);

  if (rest.empty()) {
    // Auto split: fit on the first half of the evaluation window.
    info.fit_end = static_cast<int>(
        std::clamp(std::ceil((t0 + t_end) / 2.0), first, last));
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

namespace {

/// One scenario's fit, set up: the parsed spec, the early observation
/// window and the fit options (bounds from `base`, solver configuration
/// from the scenario).
struct calibration_setup {
  calibrate_spec info;
  fit::observation_window window;
  fit::calibration_problem problem;
};

calibration_setup setup_calibration(const scenario& sc,
                                    const dataset_slice& slice,
                                    const fit::calibration_options& base,
                                    thread_pool* pool) {
  calibration_setup setup;
  setup.info =
      parse_calibrate_spec(sc.rate, sc.t0, sc.t_end, slice.horizon_hours);
  const calibrate_spec& info = setup.info;

  // The early observation window: hour-t0 profile plus every observed
  // hour up to the fit split.
  fit::observation_window& window = setup.window;
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

  fit::calibration_options& options = setup.problem.options;
  options = base;
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

  if (pool != nullptr) {
    options.run_batch = [pool](std::vector<std::function<void()>> tasks) {
      pool->run_batch(std::move(tasks));
    };
  }

  // Start from the slice's base parameters, but fit against the rate the
  // engine solve will actually use: dl_adapter always derives the rate
  // from the spec, so a custom base_params.r never reaches the solve and
  // must not steer the (d, K) fit either.
  core::dl_parameters& start = setup.problem.start;
  start = slice.base_params;
  if (!info.fit_rate) start.r = make_rate("preset", slice.metric);
  start.dom = make_domain(sc.domain);
  return setup;
}

/// The solve-cache name of one fit: everything its outcome depends on —
/// the slice, the solver configuration, the fit family and window, the
/// domain — and the search settings (box bounds, lattice resolution,
/// refinement cap).  The fit's record lives under "<key>|<i>".
std::string fit_key(const scenario& sc, const dataset_slice& slice,
                    const calibration_setup& setup) {
  const calibrate_spec& info = setup.info;
  const fit::calibration_options& options = setup.problem.options;
  std::string key = "fit|slice=" + slice.name + '#' +
                    std::to_string(slice.fingerprint) + "|model=" + sc.model;
  key += "|scheme=" + core::to_string(sc.scheme);
  key += "|grid=" + std::to_string(sc.points_per_unit);
  key += "|dt=" + format_full_precision(options.solver.dt);
  // Distinguish the three fit families: their vectors have different
  // layouts (and, for -fixed vs -spatial, different models behind equal
  // (d, K) lattices).
  if (info.fit_rate) {
    key += "|rate=fit";
  } else if (info.fit_spatial) {
    key += "|rate=fit-m:" + resolve_rate_spec("preset", slice.metric);
  } else {
    key += "|rate=" + resolve_rate_spec("preset", slice.metric);
  }
  key += "|t0=" + format_full_precision(sc.t0);
  key += "|fit_end=" + std::to_string(info.fit_end);
  // Same convention as scenario_cache_key: non-line domains suffix their
  // canonical label.
  const core::domain& dom = setup.problem.start.dom;
  if (!dom.is_line()) key += "|domain=" + dom.label();
  key += "|box=" + join_full_precision({options.d_min, options.d_max,
                                        options.k_min, options.k_max,
                                        options.a_min, options.a_max,
                                        options.b_min, options.b_max,
                                        options.c_min, options.c_max,
                                        options.m_min, options.m_max});
  key += "|lattice=" + std::to_string(options.coarse_steps);
  key += "|refine=" + std::to_string(options.refine_iterations);
  return key;
}

/// A fit's record is n + 2 value entries: the n fitted coordinates x,
/// then sse, then evaluations.
std::string record_key(const std::string& key, std::size_t i) {
  return key + '|' + std::to_string(i);
}

/// The fit recorded under `key`, or nullopt.  Any missing number — an
/// LRU cap may have evicted part of the record — is a miss: the fit
/// reruns and stores the same bits again.
std::optional<fit::calibration_result> find_fit(
    solve_cache& cache, const std::string& key,
    const fit::calibration_problem& problem) {
  const fit::calibration_options& options = problem.options;
  const std::size_t n =
      2 + (options.fit_rate ? 3 : 0) + options.spatial_groups;
  std::vector<double> numbers;
  numbers.reserve(n + 2);
  for (std::size_t i = 0; i < n + 2; ++i) {
    const std::optional<double> value = cache.find_value(record_key(key, i));
    if (!value) return std::nullopt;
    numbers.push_back(*value);
  }
  // A count no build writes (a crafted cache file) is a miss too, never
  // a float-to-int cast out of range.
  const double evaluations = numbers[n + 1];
  if (!(evaluations >= 0.0 && evaluations < 0x1p53)) return std::nullopt;
  fit::calibration_result fit;
  fit.evaluations = static_cast<std::size_t>(evaluations);
  fit.sse = numbers[n];
  numbers.resize(n);
  fit.x = std::move(numbers);
  fit.params = fit::params_from_vector(problem.start, fit.x, options);
  return fit;
}

void store_fit(solve_cache& cache, const std::string& key,
               const fit::calibration_result& fit) {
  const std::size_t n = fit.x.size();
  for (std::size_t i = 0; i < n; ++i)
    cache.store_value(record_key(key, i), fit.x[i]);
  cache.store_value(record_key(key, n), fit.sse);
  cache.store_value(record_key(key, n + 1),
                    static_cast<double>(fit.evaluations));
}

scenario_calibration to_calibration(fit::calibration_result fit,
                                    const calibrate_spec& info,
                                    const dataset_slice& slice) {
  scenario_calibration result;
  result.fit = std::move(fit);
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

}  // namespace

std::vector<scenario_calibration> calibrate_scenarios(
    std::span<const scenario> scenarios,
    std::span<const dataset_slice* const> slices,
    const fit::calibration_options& base, solve_cache* cache,
    thread_pool* pool, std::size_t width) {
  if (slices.size() != scenarios.size())
    throw std::invalid_argument(
        "calibrate_scenarios: one slice per scenario required");
  // Every lane is set up before any probe runs, so a malformed spec
  // fails the batch without having touched the cache.
  std::vector<calibration_setup> setups;
  setups.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    setups.push_back(setup_calibration(scenarios[i], *slices[i], base, pool));
  // Recorded fits are read back; only the rest are searched, in lockstep.
  std::vector<std::optional<fit::calibration_result>> fits(setups.size());
  std::vector<std::string> keys(setups.size());
  std::vector<std::size_t> missed;
  std::vector<fit::calibration_problem> problems;
  for (std::size_t i = 0; i < setups.size(); ++i) {
    calibration_setup& setup = setups[i];
    setup.problem.window = &setup.window;
    if (cache != nullptr) {
      keys[i] = fit_key(scenarios[i], *slices[i], setup);
      fits[i] = find_fit(*cache, keys[i], setup.problem);
      if (fits[i]) continue;
    }
    missed.push_back(i);
    problems.push_back(std::move(setup.problem));
  }
  std::vector<fit::calibration_result> searched =
      fit::calibrate_dl(problems, width);
  for (std::size_t m = 0; m < missed.size(); ++m) {
    const std::size_t i = missed[m];
    if (cache != nullptr) store_fit(*cache, keys[i], searched[m]);
    fits[i] = std::move(searched[m]);
  }
  std::vector<scenario_calibration> results;
  results.reserve(fits.size());
  for (std::size_t i = 0; i < fits.size(); ++i)
    results.push_back(
        to_calibration(std::move(*fits[i]), setups[i].info, *slices[i]));
  return results;
}

std::vector<scenario_calibration> diffusion_model::calibrate_batch(
    std::span<const scenario> scenarios,
    std::span<const dataset_slice* const> slices,
    const fit::calibration_options& options, solve_cache* cache,
    thread_pool* pool, std::size_t width) const {
  return calibrate_scenarios(scenarios, slices, options, cache, pool, width);
}

std::vector<prepared_solve> prepare_solves(
    const diffusion_model& model, std::span<const scenario> scenarios,
    std::span<const dataset_slice* const> slices,
    const fit::calibration_options& options, solve_cache* cache,
    thread_pool* pool, std::size_t width) {
  std::vector<prepared_solve> prepared;
  prepared.reserve(scenarios.size());
  std::vector<scenario> fitted;
  std::vector<const dataset_slice*> fitted_slices;
  std::vector<std::size_t> fitted_at;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const scenario& sc = scenarios[i];
    prepared.push_back({sc, std::nullopt});
    if (!model.uses_rate() || !is_calibrate_spec(sc.rate)) continue;
    if (!model.supports_calibration())
      throw std::invalid_argument("model '" + sc.model +
                                  "' does not support calibrate rate specs");
    if (sc.rate.starts_with("calibrate-spatial") &&
        !model.supports_spatial_rate())
      throw std::invalid_argument("model '" + sc.model +
                                  "' does not support spatial rate specs");
    fitted.push_back(sc);
    fitted_slices.push_back(slices[i]);
    fitted_at.push_back(i);
  }
  if (fitted.empty()) return prepared;
  std::vector<scenario_calibration> fits = model.calibrate_batch(
      fitted, fitted_slices, options, cache, pool, width);
  for (std::size_t f = 0; f < fitted_at.size(); ++f) {
    prepared_solve& p = prepared[fitted_at[f]];
    const scenario_calibration& cal = p.calibration.emplace(std::move(fits[f]));
    p.solved.rate = cal.resolved_rate;
    p.solved.d_override = cal.fit.params.d;
    p.solved.k_override = cal.fit.params.k;
  }
  return prepared;
}

prepared_solve prepare_solve(const diffusion_model& model, const scenario& sc,
                             const dataset_slice& slice,
                             const fit::calibration_options& options,
                             solve_cache* cache, thread_pool* pool) {
  const dataset_slice* const slices[] = {&slice};
  return std::move(
      prepare_solves(model, {&sc, 1}, slices, options, cache, pool, 1)
          .front());
}

}  // namespace dlm::engine
