#include "numerics/optimize/grid_search.h"

#include <stdexcept>

namespace dlm::num {

std::vector<std::vector<double>> grid_lattice_points(
    std::span<const grid_axis> axes) {
  if (axes.empty())
    throw std::invalid_argument("grid_lattice_points: no axes");
  for (const grid_axis& ax : axes) {
    if (ax.count == 0)
      throw std::invalid_argument(
          "grid_lattice_points: axis count must be >= 1");
    if (ax.count > 1 && !(ax.hi > ax.lo))
      throw std::invalid_argument(
          "grid_lattice_points: require hi > lo for count > 1");
  }

  const std::size_t dims = axes.size();
  std::vector<std::size_t> idx(dims, 0);
  std::vector<std::vector<double>> points;
  for (;;) {
    std::vector<double>& point = points.emplace_back(dims);
    for (std::size_t k = 0; k < dims; ++k) {
      const grid_axis& ax = axes[k];
      point[k] = (ax.count == 1)
                     ? ax.lo
                     : ax.lo + (ax.hi - ax.lo) * static_cast<double>(idx[k]) /
                           static_cast<double>(ax.count - 1);
    }

    // Odometer increment across the lattice.
    std::size_t k = 0;
    for (; k < dims; ++k) {
      if (++idx[k] < axes[k].count) break;
      idx[k] = 0;
    }
    if (k == dims) return points;
  }
}

}  // namespace dlm::num
