// Explicit ODE integrators (method-of-lines backbone).
//
// The DL equation can be solved by discretizing space and integrating the
// resulting ODE system in time ("method of lines").  These integrators also
// drive the baseline temporal-only models (per-distance logistic, SI).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace dlm::num {

/// Right-hand side of an ODE system y' = f(t, y): writes dy/dt into `dydt`.
/// `y` and `dydt` always have the same size.
using ode_rhs =
    std::function<void(double t, std::span<const double> y, std::span<double> dydt)>;

/// Reusable stage buffers for rk4_step: one allocation per run instead of
/// five per step when a caller steps the same system repeatedly (the DL
/// method-of-lines scheme does this thousands of times per solve).
struct rk4_scratch {
  std::vector<double> k1, k2, k3, k4, tmp;

  /// Sizes every stage buffer to n (no-op when already sized).
  void prepare(std::size_t n);
};

/// One classical Runge–Kutta 4th-order step from (t, y) with step h,
/// writing its stages into caller-owned scratch: zero allocations once
/// `scratch` has been prepared at the right size.  `y_next` may not alias
/// y.
void rk4_step(const ode_rhs& f, double t, std::span<const double> y, double h,
              std::span<double> y_next, rk4_scratch& scratch);

/// Convenience: integrates a scalar ODE y' = f(t, y) with RK4 and returns
/// y(t1).
[[nodiscard]] double integrate_scalar(
    const std::function<double(double, double)>& f, double t0, double y0,
    double t1, std::size_t n_steps);

}  // namespace dlm::num
