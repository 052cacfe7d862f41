// The organic-cascade model comparison sweep.
//
// The calibrated generator behind the benches matches the paper's curves
// by construction; this sweep instead runs the *mechanistic* cascade
// simulator (follower spreading + front-page random arrivals, nothing
// fitted) and asks which model explains the organic data best.  One
// declarative sweep covers every registered model family: DL under all
// four schemes × two grid resolutions × five growth rates (the
// "calibrate" spec fits (d, K, a, b, c) on the early window; the paper-§V
// spatial axis adds a fixed separable r(x, t) = m(x)·r(t) and
// "calibrate-spatial", which fits the per-hop multipliers), under
// strang-cn also on a 2-D sheet and on three coupled communities, plus
// the heat, logistic, per-distance logistic and SI baselines.
// examples/model_comparison demonstrates it and `dl_shard --sweep
// comparison` runs it in batch and in shards; both expand the one
// scenario list built here.
#pragma once

#include <cstddef>

#include "engine/scenario.h"
#include "fit/calibrate.h"

namespace dlm::eval {

struct comparison_sweep {
  /// One hop slice: the organic cascade on its follower graph.
  engine::scenario_context context;
  engine::sweep_spec spec;
  /// Calibration options every run of the sweep uses (3^5 lattice points
  /// per fit).
  fit::calibration_options calibration;
  /// Votes the organic cascade collected within the horizon.
  std::size_t votes = 0;
};

/// Builds the comparison sweep: a fixed-seed 12k-user follower graph, the
/// organic cascade from its most-followed user over 12 hours, and the
/// sweep spec over it.  Deterministic.
[[nodiscard]] comparison_sweep make_comparison_sweep();

}  // namespace dlm::eval
