#include "numerics/quadrature.h"

#include <stdexcept>

namespace dlm::num {

double trapezoid(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size())
    throw std::invalid_argument("trapezoid: x/y size mismatch");
  if (x.size() < 2) throw std::invalid_argument("trapezoid: need >= 2 samples");
  double acc = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    const double h = x[i] - x[i - 1];
    if (!(h > 0.0))
      throw std::invalid_argument("trapezoid: x must be strictly increasing");
    acc += 0.5 * h * (y[i] + y[i - 1]);
  }
  return acc;
}

double simpson(const std::function<double(double)>& f, double a, double b,
               std::size_t n) {
  if (!(b > a)) throw std::invalid_argument("simpson: require b > a");
  if (n < 2) n = 2;
  if (n % 2 != 0) ++n;
  const double h = (b - a) / static_cast<double>(n);
  double acc = f(a) + f(b);
  for (std::size_t i = 1; i < n; ++i) {
    const double xi = a + static_cast<double>(i) * h;
    acc += (i % 2 == 1 ? 4.0 : 2.0) * f(xi);
  }
  return acc * h / 3.0;
}

}  // namespace dlm::num
