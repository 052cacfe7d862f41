// Numerical quadrature over callables.
//
// Integrates growth rates over a step (∫ r(t) dt) when a rate has no
// closed-form integral.
#pragma once

#include <cstddef>
#include <functional>

namespace dlm::num {

/// Composite Simpson rule for a callable over [a, b] with n subintervals
/// (n is rounded up to the next even number; n >= 2).
[[nodiscard]] double simpson(const std::function<double(double)>& f, double a,
                             double b, std::size_t n);

}  // namespace dlm::num
