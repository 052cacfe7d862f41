#include "fit/objective.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/dl_model.h"

namespace dlm::fit {

void observation_window::validate() const {
  if (initial.size() < 2)
    throw std::invalid_argument("observation_window: need >= 2 distances");
  if (times.empty())
    throw std::invalid_argument("observation_window: no observed times");
  double prev = t0;
  for (double t : times) {
    if (!(t > prev))
      throw std::invalid_argument(
          "observation_window: times must be ascending and > t0");
    prev = t;
  }
  if (observed.size() != initial.size())
    throw std::invalid_argument("observation_window: observed row mismatch");
  for (const auto& row : observed) {
    if (row.size() != times.size())
      throw std::invalid_argument("observation_window: observed column mismatch");
  }
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The squared residuals of a solved trajectory against the window's
/// observations; +inf when non-finite or unreadable.
double score(const core::dl_solution& solution,
             const core::dl_parameters& params,
             const observation_window& window) {
  try {
    const int lo = static_cast<int>(std::lround(params.x_min));
    const int hi = static_cast<int>(std::lround(params.x_max));
    double acc = 0.0;
    // Domain-agnostic by construction: at_integer_distances reduces a
    // multi-block trace (2-D sheet rows, coupled communities) down to
    // the distance axis, so the same SSE calibrates params.dom of any
    // kind against per-distance observations.
    // One profile buffer reused across the observed hours — calibration
    // evaluates this objective hundreds of times per fit, so the solver's
    // allocation-free read path matters here.
    std::vector<double> profile(window.initial.size());
    for (std::size_t j = 0; j < window.times.size(); ++j) {
      solution.at_integer_distances(window.times[j], lo, hi, profile);
      for (std::size_t i = 0; i < window.initial.size(); ++i) {
        const double e = profile[i] - window.observed[i][j];
        acc += e * e;
      }
    }
    return std::isfinite(acc) ? acc : kInf;
  } catch (const std::exception&) {
    return kInf;
  }
}

/// The solve request of one probe over its window, from `phi`.
core::solve_request probe_request(const sse_probe& probe,
                                  const core::initial_condition& phi) {
  return {.params = probe.params,
          .phi = &phi,
          .t0 = probe.window->t0,
          .t_end = probe.window->times.back(),
          .options = probe.solver};
}

}  // namespace

double dl_sse(const core::dl_parameters& params,
              const observation_window& window,
              const core::dl_solver_options& solver) {
  const sse_probe probe{&params, &window, solver};
  return dl_sse(std::span<const sse_probe>(&probe, 1)).front();
}

std::vector<double> dl_sse(std::span<const sse_probe> probes) {
  std::vector<double> out(probes.size(), kInf);
  // Straight through the unified request API: build φ once per probe,
  // solve, read back — no dl_model instance, so the objective's hot loop
  // carries no parameter/φ copies.  Requests point into `phis`, sized
  // up front.
  std::vector<core::initial_condition> phis;
  phis.reserve(probes.size());
  std::vector<core::solve_request> requests;
  std::vector<std::size_t> owner;
  for (std::size_t p = 0; p < probes.size(); ++p) {
    const sse_probe& probe = probes[p];
    probe.window->validate();
    try {
      // Invalid parameters score +inf so optimizers can probe freely.
      probe.params->validate();
      phis.push_back(
          core::dl_model::build_initial(*probe.params, probe.window->initial));
      requests.push_back(probe_request(probe, phis.back()));
      owner.push_back(p);
    } catch (const std::exception&) {
    }
  }
  try {
    const std::vector<core::dl_solution> solutions = core::solve_dl(requests);
    for (std::size_t r = 0; r < requests.size(); ++r)
      out[owner[r]] = score(solutions[r], *probes[owner[r]].params,
                            *probes[owner[r]].window);
  } catch (const std::exception&) {
    for (std::size_t r = 0; r < requests.size(); ++r) {
      try {
        out[owner[r]] = score(core::solve_dl(requests[r]),
                              *probes[owner[r]].params,
                              *probes[owner[r]].window);
      } catch (const std::exception&) {
        out[owner[r]] = kInf;
      }
    }
  }
  return out;
}

std::string dl_sse_failure(const sse_probe& probe) {
  try {
    probe.params->validate();
    const core::initial_condition phi =
        core::dl_model::build_initial(*probe.params, probe.window->initial);
    (void)core::solve_dl(probe_request(probe, phi));
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

}  // namespace dlm::fit
