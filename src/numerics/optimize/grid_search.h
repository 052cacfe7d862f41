// Exhaustive lattice over boxed parameter spaces.
//
// Coarse calibration pass: fit::calibrate_dl evaluates every point of a
// lattice of (d, K, r-parameters) and hands the best one to the
// Nelder–Mead stepper for refinement.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dlm::num {

/// One axis of the search lattice: `count` evenly spaced values spanning
/// [lo, hi] inclusive (count >= 1; count == 1 pins the axis at lo).
struct grid_axis {
  double lo = 0.0;
  double hi = 0.0;
  std::size_t count = 1;
};

/// Every point of the Cartesian lattice defined by `axes`, in scan order
/// (axis 0 varying fastest).  A caller that takes the argmin keeps the
/// lowest index on ties, so the choice does not depend on how the
/// evaluations were fanned out.  Throws std::invalid_argument for empty
/// axes, a zero-count axis, or hi <= lo on a multi-point axis.
[[nodiscard]] std::vector<std::vector<double>> grid_lattice_points(
    std::span<const grid_axis> axes);

}  // namespace dlm::num
