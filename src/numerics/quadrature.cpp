#include "numerics/quadrature.h"

#include <stdexcept>

namespace dlm::num {

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
