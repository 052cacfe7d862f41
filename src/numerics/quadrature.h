// Numerical quadrature over sampled functions and callables.
//
// Used to compute "total influence mass" ∫ I(x,t) dx diagnostics and to
// verify conservation properties of the pure-diffusion limit in tests.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

namespace dlm::num {

/// Composite trapezoid rule over samples (x[i], y[i]) with arbitrary
/// (strictly increasing) abscissae.
[[nodiscard]] double trapezoid(std::span<const double> x,
                               std::span<const double> y);

/// Composite Simpson rule for a callable over [a, b] with n subintervals
/// (n is rounded up to the next even number; n >= 2).
[[nodiscard]] double simpson(const std::function<double(double)>& f, double a,
                             double b, std::size_t n);

}  // namespace dlm::num
