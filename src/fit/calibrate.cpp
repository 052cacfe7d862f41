#include "fit/calibrate.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "numerics/optimize/grid_search.h"
#include "numerics/optimize/nelder_mead.h"

namespace dlm::fit {

core::dl_parameters params_from_vector(const core::dl_parameters& base,
                                       std::span<const double> v,
                                       const calibration_options& options) {
  core::dl_parameters p = base;
  p.d = v[0];
  p.k = v[1];
  if (options.spatial_groups > 0) {
    // Separable spatio-temporal rate m(x)·base(t): the multipliers are
    // the trailing coordinates, the base the fitted decay family or the
    // temporal factor of the start rate.
    core::growth_rate base_rate =
        options.fit_rate
            ? core::growth_rate::exponential_decay(v[2], v[3], v[4])
            : base.r.base();
    const std::size_t first_m = options.fit_rate ? 5 : 2;
    std::vector<double> multipliers(v.begin() + static_cast<std::ptrdiff_t>(first_m),
                                    v.end());
    p.r = core::rate_field::separable(std::move(base_rate),
                                      std::move(multipliers), base.x_min);
  } else if (options.fit_rate) {
    p.r = core::growth_rate::exponential_decay(v[2], v[3], v[4]);
  }
  return p;
}

namespace {

/// The solver configuration of one probe: the problem's, with the
/// engine adapter's FTCS stability clamp (dt <= dx²/(2d)) mirrored per
/// probed d, so the objective evaluates exactly the discretization the
/// fitted parameters will later run under.
core::dl_solver_options probe_solver(const calibration_options& options,
                                     const core::dl_parameters& params) {
  core::dl_solver_options solver = options.solver;
  if (solver.scheme == core::dl_scheme::ftcs && params.d > 0.0 &&
      solver.points_per_unit > 0) {
    const double dx = 1.0 / static_cast<double>(solver.points_per_unit);
    solver.dt = std::min(solver.dt, 0.9 * dx * dx / (2.0 * params.d));
  }
  return solver;
}

/// Throws for a lane whose whole coarse lattice scored +inf, naming why
/// its first lattice point did: there is no finite start to refine from,
/// so the search stops instead of running Nelder–Mead on +inf.
[[noreturn]] void throw_lane_failure(const calibration_problem& problem,
                                     std::span<const double> point) {
  const core::dl_parameters params =
      params_from_vector(problem.start, point, problem.options);
  const std::string reason = dl_sse_failure(
      {&params, problem.window, probe_solver(problem.options, params)});
  throw std::runtime_error(
      "calibrate_dl: every coarse-lattice probe failed; the first: " +
      (reason.empty() ? std::string("its residuals are not finite")
                      : reason));
}

/// One problem's search: the whole coarse lattice in one round, then
/// bounded Nelder–Mead from the best lattice point, one point a round.
class lane_search {
 public:
  explicit lane_search(const calibration_problem& problem)
      : problem_(problem), options_(problem.options) {
    const calibration_options& options = problem.options;
    // The lattice in grid_lattice_points' scan order; tell() keeps the
    // lowest index on ties, so the argmin is the serial scan's.  Spatial
    // multiplier axes are pinned at the neutral 1.0 — a lattice over them
    // would grow exponentially in the group count; Nelder–Mead refines
    // them below.
    std::vector<num::grid_axis> axes;
    axes.push_back({options.d_min, options.d_max, options.coarse_steps});
    axes.push_back({options.k_min, options.k_max, options.coarse_steps});
    if (options.fit_rate) {
      axes.push_back({options.a_min, options.a_max, options.coarse_steps});
      axes.push_back({options.b_min, options.b_max, options.coarse_steps});
      axes.push_back({options.c_min, options.c_max, options.coarse_steps});
    }
    for (std::size_t g = 0; g < options.spatial_groups; ++g)
      axes.push_back({1.0, 1.0, 1});
    lattice_ = num::grid_lattice_points(axes);
  }

  [[nodiscard]] bool done() const { return refine_ && refine_->done(); }

  /// Appends the points this search wants evaluated this round.
  void ask(std::vector<std::span<const double>>& points) const {
    if (refine_) {
      points.push_back(refine_->ask());
      return;
    }
    for (const std::vector<double>& p : lattice_) points.push_back(p);
  }

  /// Takes the values of the points last asked, in order.
  void tell(std::span<const double> values) {
    if (refine_) {
      refine_->tell(values.front());
      return;
    }
    std::size_t best = 0;
    double best_value = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] < best_value) {
        best_value = values[i];
        best = i;
      }
    }
    if (!std::isfinite(best_value))
      throw_lane_failure(problem_, lattice_.front());
    std::vector<double> lower{options_.d_min, options_.k_min};
    std::vector<double> upper{options_.d_max, options_.k_max};
    if (options_.fit_rate) {
      lower.insert(lower.end(), {options_.a_min, options_.b_min, options_.c_min});
      upper.insert(upper.end(), {options_.a_max, options_.b_max, options_.c_max});
    }
    for (std::size_t g = 0; g < options_.spatial_groups; ++g) {
      lower.push_back(options_.m_min);
      upper.push_back(options_.m_max);
    }
    num::nelder_mead_options nm;
    nm.max_iterations = options_.refine_iterations;
    nm.initial_step = 0.15;
    nm.f_tolerance = 1e-9;
    nm.x_tolerance = 1e-7;
    refine_.emplace(lattice_[best], nm, lower, upper);
    lattice_.clear();
  }

  [[nodiscard]] num::nelder_mead_result result() const {
    return refine_->result();
  }

 private:
  const calibration_problem& problem_;
  const calibration_options& options_;
  std::vector<std::vector<double>> lattice_;
  std::optional<num::nelder_mead> refine_;
};

}  // namespace

calibration_result calibrate_dl(const observation_window& window,
                                const core::dl_parameters& start,
                                const calibration_options& options) {
  const calibration_problem problem{&window, start, options};
  return std::move(calibrate_dl({&problem, 1}, 1).front());
}

std::vector<calibration_result> calibrate_dl(
    std::span<const calibration_problem> problems, std::size_t width) {
  if (problems.empty()) return {};
  for (const calibration_problem& problem : problems)
    problem.window->validate();
  std::vector<lane_search> lanes;
  lanes.reserve(problems.size());
  for (const calibration_problem& problem : problems)
    lanes.emplace_back(problem);
  std::vector<std::size_t> evaluations(problems.size(), 0);
  width = std::max<std::size_t>(width, 1);

  const auto& run_batch = problems.front().options.run_batch;
  // One round's probes: owning lane, point and value, lane-major.
  std::vector<std::size_t> lane_of;
  std::vector<std::span<const double>> points;
  std::vector<double> values;
  for (;;) {
    lane_of.clear();
    points.clear();
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      if (lanes[l].done()) continue;
      lanes[l].ask(points);
      lane_of.resize(points.size(), l);
    }
    if (points.empty()) break;

    values.assign(points.size(), 0.0);

    // The points, in solve calls of at most `width` lanes.
    const auto solve_call = [&](std::size_t from, std::size_t to) {
      std::vector<core::dl_parameters> params;
      params.reserve(to - from);
      std::vector<sse_probe> probes;
      probes.reserve(to - from);
      for (std::size_t p = from; p < to; ++p) {
        const calibration_problem& problem = problems[lane_of[p]];
        params.push_back(
            params_from_vector(problem.start, points[p], problem.options));
        probes.push_back({&params.back(), problem.window,
                          probe_solver(problem.options, params.back())});
      }
      const std::vector<double> sse = dl_sse(probes);
      std::copy(sse.begin(), sse.end(),
                values.begin() + static_cast<std::ptrdiff_t>(from));
    };
    if (points.size() <= width || !run_batch) {
      for (std::size_t from = 0; from < points.size(); from += width)
        solve_call(from, std::min(from + width, points.size()));
    } else {
      std::vector<std::function<void()>> tasks;
      for (std::size_t from = 0; from < points.size(); from += width)
        tasks.push_back([&, from] {
          solve_call(from, std::min(from + width, points.size()));
        });
      run_batch(std::move(tasks));
    }
    for (const std::size_t l : lane_of) ++evaluations[l];

    // Tell every lane its values; a lane's probes are contiguous.
    for (std::size_t p = 0; p < points.size();) {
      std::size_t end = p;
      while (end < points.size() && lane_of[end] == lane_of[p]) ++end;
      lanes[lane_of[p]].tell(
          std::span<const double>(values.data() + p, end - p));
      p = end;
    }
  }

  std::vector<calibration_result> results;
  results.reserve(problems.size());
  for (std::size_t l = 0; l < problems.size(); ++l) {
    const num::nelder_mead_result refined = lanes[l].result();
    calibration_result& result = results.emplace_back();
    result.params =
        params_from_vector(problems[l].start, refined.x, problems[l].options);
    result.x = refined.x;
    result.sse = refined.f_value;
    result.evaluations = evaluations[l];
  }
  return results;
}

}  // namespace dlm::fit
