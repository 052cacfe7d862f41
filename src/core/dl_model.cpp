#include "core/dl_model.h"

#include <cmath>
#include <stdexcept>

namespace dlm::core {

initial_condition dl_model::build_initial(const dl_parameters& params,
                                          std::span<const double> observed) {
  params.validate();
  const auto expected = static_cast<std::size_t>(
      std::lround(params.x_max - params.x_min)) + 1;
  if (observed.size() != expected)
    throw std::invalid_argument(
        "dl_model: observation count must match integer distances in "
        "[x_min, x_max]");
  std::vector<double> xs(observed.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = params.x_min + static_cast<double>(i);
  return initial_condition(xs, observed);
}

dl_model::dl_model(dl_parameters params,
                   std::span<const double> observed_initial, double t0,
                   double t_max, dl_solver_options options)
    : params_(std::move(params)), t0_(t0), t_max_(t_max),
      phi_(build_initial(params_, observed_initial)),
      solution_(solve_dl({.params = &params_,
                          .phi = &phi_,
                          .t0 = t0,
                          .t_end = t_max,
                          .options = options})) {}

double dl_model::predict(int x, double t) const {
  return solution_.at(static_cast<double>(x), t);
}

std::vector<double> dl_model::predict_profile(double t) const {
  const int lo = static_cast<int>(std::lround(params_.x_min));
  const int hi = static_cast<int>(std::lround(params_.x_max));
  return solution_.at_integer_distances(t, lo, hi);
}

}  // namespace dlm::core
