#include "fit/rate_profile.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dlm::fit {

std::vector<double> fit_rate_profile(std::span<const double> initial,
                                     std::span<const double> observed_at_tobs,
                                     const core::growth_rate& base_rate,
                                     double k, double t0, double t_obs) {
  if (initial.size() != observed_at_tobs.size())
    throw std::invalid_argument("fit_rate_profile: size mismatch");
  if (!(t_obs > t0))
    throw std::invalid_argument("fit_rate_profile: t_obs must exceed t0");
  if (!(k > 0.0))
    throw std::invalid_argument("fit_rate_profile: K must be positive");

  const double base_integral = base_rate.integral(t0, t_obs);
  std::vector<double> multipliers(initial.size(), 1.0);
  for (std::size_t i = 0; i < initial.size(); ++i) {
    if (initial[i] <= 0.0 || observed_at_tobs[i] <= initial[i]) continue;
    // Logistic-braking correction with the window-average density.
    const double mean_density = 0.5 * (initial[i] + observed_at_tobs[i]);
    const double braking = std::max(1.0 - mean_density / k, 1e-3);
    const double log_growth = std::log(observed_at_tobs[i] / initial[i]);
    multipliers[i] =
        std::max(0.0, log_growth / (base_integral * braking));
  }
  return multipliers;
}

}  // namespace dlm::fit
