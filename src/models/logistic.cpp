#include "models/logistic.h"

#include <cmath>
#include <stdexcept>

namespace dlm::models {

double logistic_solution(double n0, double r, double k, double t0, double t) {
  if (!(n0 > 0.0)) throw std::invalid_argument("logistic_solution: N0 must be > 0");
  if (!(k > 0.0)) throw std::invalid_argument("logistic_solution: K must be > 0");
  const double a = (k - n0) / n0;
  return k / (1.0 + a * std::exp(-r * (t - t0)));
}

double logistic_step(double n, double integrated_rate, double k) {
  if (!(k > 0.0)) throw std::invalid_argument("logistic_step: K must be > 0");
  if (n <= 0.0) return n;  // 0 is an equilibrium; negatives pass through
  const double growth = std::exp(integrated_rate);
  return k * n * growth / (k + n * (growth - 1.0));
}

}  // namespace dlm::models
