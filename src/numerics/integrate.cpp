#include "numerics/integrate.h"

#include <stdexcept>

namespace dlm::num {
namespace {

void check_sizes(std::span<const double> y, std::span<double> y_next) {
  if (y.size() != y_next.size())
    throw std::invalid_argument("ode step: y/y_next size mismatch");
}

}  // namespace

void rk4_scratch::prepare(std::size_t n) {
  k1.resize(n);
  k2.resize(n);
  k3.resize(n);
  k4.resize(n);
  tmp.resize(n);
}

void rk4_step(const ode_rhs& f, double t, std::span<const double> y, double h,
              std::span<double> y_next, rk4_scratch& scratch) {
  check_sizes(y, y_next);
  const std::size_t n = y.size();
  scratch.prepare(n);
  std::vector<double>& k1 = scratch.k1;
  std::vector<double>& k2 = scratch.k2;
  std::vector<double>& k3 = scratch.k3;
  std::vector<double>& k4 = scratch.k4;
  std::vector<double>& tmp = scratch.tmp;
  f(t, y, k1);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + 0.5 * h * k1[i];
  f(t + 0.5 * h, tmp, k2);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + 0.5 * h * k2[i];
  f(t + 0.5 * h, tmp, k3);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + h * k3[i];
  f(t + h, tmp, k4);
  for (std::size_t i = 0; i < n; ++i)
    y_next[i] = y[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
}

double integrate_scalar(const std::function<double(double, double)>& f,
                        double t0, double y0, double t1, std::size_t n_steps) {
  const ode_rhs rhs = [&f](double t, std::span<const double> y,
                           std::span<double> dydt) {
    dydt[0] = f(t, y[0]);
  };
  const double h = (t1 - t0) / static_cast<double>(n_steps);
  std::vector<double> y{y0};
  std::vector<double> y_next(1);
  rk4_scratch scratch;
  for (std::size_t s = 0; s < n_steps; ++s) {
    rk4_step(rhs, t0 + static_cast<double>(s) * h, y, h, y_next, scratch);
    y.swap(y_next);
  }
  return y[0];
}

}  // namespace dlm::num
