#include "engine/adapters.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "core/dl_model.h"
#include "core/initial_condition.h"
#include "models/heat_model.h"
#include "models/logistic.h"
#include "models/per_distance_logistic.h"
#include "models/si_epidemic.h"
#include "numerics/rng.h"

namespace dlm::engine {

std::vector<model_trace> diffusion_model::solve_batch(
    std::span<const scenario> scenarios, const dataset_slice& slice) const {
  std::vector<model_trace> traces;
  traces.reserve(scenarios.size());
  for (const scenario& sc : scenarios) traces.push_back(solve(sc, slice));
  return traces;
}

std::vector<double> diffusion_model::evaluation_times(
    const scenario& sc, const dataset_slice& slice) {
  // Compared as doubles before any int cast: a t0 far outside the
  // observed hours throws here, and a large t_end clips to the horizon.
  const double first = std::floor(sc.t0) + 1.0;
  const double last = std::min(std::floor(sc.t_end),
                               static_cast<double>(slice.horizon_hours));
  if (!(first >= 1.0 && first <= last))
    throw std::invalid_argument(
        "diffusion_model: no observed hour in (t0, t_end] (t0 < 0 or "
        "t0 >= t_end?)");
  std::vector<double> times;
  for (int t = static_cast<int>(first); t <= static_cast<int>(last); ++t)
    times.push_back(static_cast<double>(t));
  return times;
}

namespace {

model_trace make_trace(const scenario& sc, const dataset_slice& slice) {
  model_trace trace;
  for (int x = 1; x <= slice.max_distance; ++x) trace.distances.push_back(x);
  trace.times = diffusion_model::evaluation_times(sc, slice);
  trace.predicted.assign(trace.distances.size(),
                         std::vector<double>(trace.times.size(), 0.0));
  return trace;
}

}  // namespace

model_trace dl_adapter::solve(const scenario& sc,
                              const dataset_slice& slice) const {
  return std::move(solve_batch({&sc, 1}, slice).front());
}

std::vector<model_trace> dl_adapter::solve_batch(
    std::span<const scenario> scenarios, const dataset_slice& slice) const {
  const std::size_t count = scenarios.size();
  std::vector<model_trace> traces;
  traces.reserve(count);
  // Requests hold pointers into these, so both are sized exactly up front.
  std::vector<core::dl_parameters> params;
  params.reserve(count);
  std::vector<core::initial_condition> phis;
  phis.reserve(count);
  std::vector<core::solve_request> requests;
  requests.reserve(count);

  for (const scenario& sc : scenarios) {
    traces.push_back(make_trace(sc, slice));
    model_trace& trace = traces.back();

    params.push_back(slice.base_params);
    core::dl_parameters& p = params.back();
    p.r = make_rate(sc.rate, slice.metric);
    p.dom = make_domain(sc.domain);
    trace.domain = p.dom.label();
    p.d = sc.d_override.value_or(p.d);
    p.k = sc.k_override.value_or(p.k);

    core::dl_solver_options options;
    options.scheme = sc.scheme;
    options.points_per_unit = sc.points_per_unit;
    options.dt = sc.dt;
    if (sc.scheme == core::dl_scheme::ftcs && p.d > 0.0) {
      // FTCS is conditionally stable (dt <= dx²/(2d)); clamp so fine-grid
      // sweep points stay finite instead of blowing up.
      const double dx = 1.0 / static_cast<double>(sc.points_per_unit);
      options.dt = std::min(options.dt, 0.9 * dx * dx / (2.0 * p.d));
    }
    trace.effective_dt = options.dt;

    phis.push_back(core::dl_model::build_initial(
        p, slice.profile_at(static_cast<int>(sc.t0))));
    requests.push_back({.params = &p,
                        .phi = &phis.back(),
                        .t0 = sc.t0,
                        .t_end = trace.times.back(),
                        .options = options});
  }

  // One call advances every compatible scenario in lockstep (batch
  // workspaces are thread-local, so each pool worker reuses its own SoA
  // buffers across chunks); incompatible or singleton requests take the
  // scalar path inside.  Either way each trace is bitwise identical to a
  // per-scenario solve.
  const std::vector<core::dl_solution> solutions = core::solve_dl(requests);

  for (std::size_t s = 0; s < count; ++s) {
    model_trace& trace = traces[s];
    const int lo = static_cast<int>(std::lround(params[s].x_min));
    const int hi = static_cast<int>(std::lround(params[s].x_max));
    std::vector<double> profile(trace.distances.size());
    for (std::size_t j = 0; j < trace.times.size(); ++j) {
      solutions[s].at_integer_distances(trace.times[j], lo, hi, profile);
      for (std::size_t i = 0; i < trace.distances.size(); ++i)
        trace.predicted[i][j] = profile[i];
    }
  }
  return traces;
}

model_trace heat_adapter::solve(const scenario& sc,
                                const dataset_slice& slice) const {
  model_trace trace = make_trace(sc, slice);
  if (sc.points_per_unit == 0)
    throw std::invalid_argument("heat_adapter: points_per_unit must be > 0");
  const double lower = 1.0;
  const double upper = static_cast<double>(slice.max_distance);

  const core::initial_condition phi(slice.profile_at(static_cast<int>(sc.t0)));
  const std::size_t nodes =
      static_cast<std::size_t>(slice.max_distance - 1) * sc.points_per_unit + 1;
  const std::vector<double> samples = phi.sample(lower, upper, nodes);

  for (std::size_t j = 0; j < trace.times.size(); ++j) {
    const std::vector<double> profile = models::heat_neumann_series(
        samples, lower, upper, slice.base_params.d, trace.times[j] - sc.t0);
    for (std::size_t i = 0; i < trace.distances.size(); ++i)
      trace.predicted[i][j] = profile[i * sc.points_per_unit];
  }
  return trace;
}

model_trace global_logistic_adapter::solve(const scenario& sc,
                                           const dataset_slice& slice) const {
  model_trace trace = make_trace(sc, slice);
  const core::rate_field rate = make_rate(sc.rate, slice.metric);
  if (rate.spatial())
    throw std::invalid_argument(
        "global_logistic: spatial rate spec '" + sc.rate +
        "' has no meaning for a space-free model (expand_sweep collapses "
        "spatial specs to their temporal base for this model)");
  const std::vector<double> hour0 =
      slice.profile_at(static_cast<int>(sc.t0));
  const double n0 =
      std::accumulate(hour0.begin(), hour0.end(), 0.0) /
      static_cast<double>(hour0.size());

  for (std::size_t j = 0; j < trace.times.size(); ++j) {
    const double integrated =
        rate.integral(sc.t0, trace.times[j], slice.base_params.x_min);
    const double value =
        models::logistic_step(n0, integrated, slice.base_params.k);
    for (std::size_t i = 0; i < trace.distances.size(); ++i)
      trace.predicted[i][j] = value;
  }
  return trace;
}

model_trace per_distance_logistic_adapter::solve(
    const scenario& sc, const dataset_slice& slice) const {
  model_trace trace = make_trace(sc, slice);
  // One rate callable per distance group: r(x_i, t).  A temporal field
  // collapses to the single shared callable (one Simpson integral).  The
  // field is shared across the lambdas — capturing it by value would
  // deep-copy its growth_rate table once per group.
  const auto rate = std::make_shared<const core::rate_field>(
      make_rate(sc.rate, slice.metric));
  std::vector<models::rate_fn> rates;
  const std::size_t groups =
      rate->spatial() ? static_cast<std::size_t>(slice.max_distance) : 1;
  for (std::size_t i = 0; i < groups; ++i) {
    const double x = slice.base_params.x_min + static_cast<double>(i);
    rates.push_back([rate, x](double t) { return (*rate)(x, t); });
  }
  const models::per_distance_logistic model(
      slice.profile_at(static_cast<int>(sc.t0)), sc.t0, slice.base_params.k,
      std::move(rates));

  for (std::size_t j = 0; j < trace.times.size(); ++j) {
    const std::vector<double> profile = model.predict(trace.times[j]);
    for (std::size_t i = 0; i < trace.distances.size(); ++i)
      trace.predicted[i][j] = profile[i];
  }
  return trace;
}

model_trace si_adapter::solve(const scenario& sc,
                              const dataset_slice& slice) const {
  if (slice.followers == nullptr || slice.partition == nullptr)
    throw std::invalid_argument("si_adapter: slice '" + slice.name +
                                "' has no follower graph / partition");
  model_trace trace = make_trace(sc, slice);

  models::si_params params;
  params.beta = beta;
  params.steps = static_cast<int>(trace.times.back());
  num::rng rand(sc.seed);
  const models::si_trace si =
      models::run_si(*slice.followers, slice.initiator, params, rand);
  const std::vector<std::vector<double>> density =
      models::si_density_by_distance(si, *slice.partition, params.steps);

  for (std::size_t i = 0; i < trace.distances.size(); ++i) {
    if (i >= density.size()) break;  // partition may cover fewer groups
    for (std::size_t j = 0; j < trace.times.size(); ++j) {
      const auto step = static_cast<std::size_t>(trace.times[j]) - 1;
      if (step < density[i].size()) trace.predicted[i][j] = density[i][step];
    }
  }
  return trace;
}

}  // namespace dlm::engine
