// Growth-rate functions r(t) for the DL equation.
//
// The paper observes (Fig. 4) that density increments shrink hour over
// hour and therefore makes r a *decreasing function of time*; its Eq. 7
// instance is r(t) = 1.4·e^{−1.5(t−1)} + 0.25 (Fig. 6).  The model also
// admits constant rates.  growth_rate is the
// purely-temporal building block; the solver consumes the §V
// spatio-temporal field core::rate_field (see core/rate_field.h), into
// which a growth_rate lifts implicitly as r(x, t) = r(t).
#pragma once

#include <functional>
#include <string>

namespace dlm::core {

/// A growth-rate function of time.
class growth_rate {
 public:
  /// Constant rate r(t) = value.
  static growth_rate constant(double value);

  /// Decaying exponential r(t) = amplitude·e^{−decay (t−1)} + floor
  /// (the paper's family; Eq. 7 is amplitude 1.4, decay 1.5, floor 0.25).
  static growth_rate exponential_decay(double amplitude, double decay,
                                       double floor);

  /// The exact paper Eq. 7 rate used for the friendship-hop experiments.
  static growth_rate paper_hops();

  /// The rate used for the shared-interest experiments
  /// (§III.C: r(t) = 1.6·e^{−(t−1)} + 0.1).
  static growth_rate paper_interest();

  [[nodiscard]] double operator()(double t) const { return fn_(t); }
  [[nodiscard]] const std::string& label() const noexcept { return label_; }

  /// ∫ r(s) ds over [t0, t1], exact for every family.  The Strang-split
  /// solver consumes integrated rates (the logistic substep is exact
  /// given ∫r).
  [[nodiscard]] double integral(double t0, double t1) const;

 private:
  growth_rate(std::function<double(double)> fn,
              std::function<double(double, double)> integral,
              std::string label);

  std::function<double(double)> fn_;
  std::function<double(double, double)> integral_;
  std::string label_;
};

}  // namespace dlm::core
