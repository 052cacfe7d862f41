#include "core/growth_rate.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace dlm::core {

growth_rate::growth_rate(std::function<double(double)> fn,
                         std::function<double(double, double)> integral,
                         std::string label)
    : fn_(std::move(fn)), integral_(std::move(integral)),
      label_(std::move(label)) {}

growth_rate growth_rate::constant(double value) {
  if (value < 0.0)
    throw std::invalid_argument("growth_rate::constant: negative rate");
  return growth_rate([value](double) { return value; },
                     [value](double t0, double t1) { return value * (t1 - t0); },
                     "constant(" + std::to_string(value) + ")");
}

growth_rate growth_rate::exponential_decay(double amplitude, double decay,
                                           double floor) {
  if (amplitude < 0.0 || floor < 0.0 || decay <= 0.0)
    throw std::invalid_argument("growth_rate::exponential_decay: bad params");
  const auto fn = [amplitude, decay, floor](double t) {
    return amplitude * std::exp(-decay * (t - 1.0)) + floor;
  };
  const auto integral = [amplitude, decay, floor](double t0, double t1) {
    // ∫ a·e^{−b(s−1)} + c ds = −a/b·e^{−b(s−1)} + c·s
    const double part = amplitude / decay *
                        (std::exp(-decay * (t0 - 1.0)) -
                         std::exp(-decay * (t1 - 1.0)));
    return part + floor * (t1 - t0);
  };
  return growth_rate(fn, integral,
                     "exp_decay(a=" + std::to_string(amplitude) +
                         ",b=" + std::to_string(decay) +
                         ",c=" + std::to_string(floor) + ")");
}

growth_rate growth_rate::paper_hops() {
  return exponential_decay(1.4, 1.5, 0.25);
}

growth_rate growth_rate::paper_interest() {
  return exponential_decay(1.6, 1.0, 0.1);
}

double growth_rate::integral(double t0, double t1) const {
  if (t1 < t0) throw std::invalid_argument("growth_rate::integral: t1 < t0");
  if (t1 == t0) return 0.0;
  return integral_(t0, t1);
}

}  // namespace dlm::core
