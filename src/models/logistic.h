// The scalar logistic growth model (paper Eq. 2).
//
// N' = r·N·(1 − N/K) — the paper's model of the *growth process* (spread
// within one distance group).  Provides the closed-form solution and the
// exact one-step propagator the Strang-split DL solver uses.
#pragma once

namespace dlm::models {

/// Closed-form logistic solution
///   N(t) = K / (1 + ((K − N0)/N0) · e^{−r (t − t0)}),  N0 > 0.
[[nodiscard]] double logistic_solution(double n0, double r, double k,
                                       double t0, double t);

/// Exact propagator over one step of length h with *integrated* rate
/// R = ∫ r(t) dt over the step (logistic is autonomous in the rescaled
/// time ∫r): N ← K·N·e^R / (K + N·(e^R − 1)).  Maps [0, K] to [0, K] for
/// any R ≥ 0 — the positivity backbone of the Strang-split DL scheme.
[[nodiscard]] double logistic_step(double n, double integrated_rate, double k);

}  // namespace dlm::models
