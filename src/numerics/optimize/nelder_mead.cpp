#include "numerics/optimize/nelder_mead.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dlm::num {

nelder_mead::nelder_mead(std::span<const double> x0,
                         const nelder_mead_options& options,
                         std::span<const double> lower,
                         std::span<const double> upper)
    : opt_(options),
      lower_(lower.begin(), lower.end()),
      upper_(upper.begin(), upper.end()),
      x0_(x0.begin(), x0.end()),
      probe_(x0_) {
  if (x0.empty())
    throw std::invalid_argument("nelder_mead: empty starting point");
  if (!lower_.empty() || !upper_.empty()) {
    if (lower_.size() != x0.size() || upper_.size() != x0.size())
      throw std::invalid_argument("nelder_mead: bound size mismatch");
    for (std::size_t i = 0; i < x0.size(); ++i) {
      if (!(lower_[i] <= upper_[i]))
        throw std::invalid_argument("nelder_mead: lower > upper");
    }
  }
  // The initial simplex: x0 plus n displaced vertices, asked in order.
  simplex_.reserve(x0.size() + 1);
  project(probe_);
}

void nelder_mead::project(std::vector<double>& x) const {
  if (lower_.empty()) return;
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::clamp(x[i], lower_[i], upper_[i]);
}

void nelder_mead::tell(double value) {
  ++evaluations_;
  const std::size_t n = probe_.size();
  switch (stage_) {
    case stage::init: {
      simplex_.push_back({probe_, value});
      if (simplex_.size() == n + 1) {
        next_iteration();
        return;
      }
      // Vertex i + 1 displaces coordinate i of the unprojected start.
      const std::size_t i = simplex_.size() - 1;
      probe_ = x0_;
      probe_[i] += (probe_[i] != 0.0) ? opt_.initial_step * std::abs(probe_[i])
                                      : opt_.initial_step;
      project(probe_);
      return;
    }
    case stage::reflect: {
      xr_ = probe_;
      fr_ = value;
      if (fr_ < simplex_.front().f) {
        // Expansion.
        for (std::size_t k = 0; k < n; ++k)
          probe_[k] = centroid_[k] + opt_.gamma * (xr_[k] - centroid_[k]);
        project(probe_);
        stage_ = stage::expand;
        return;
      }
      if (fr_ < simplex_[n - 1].f) {
        simplex_.back() = {std::move(xr_), fr_};
        next_iteration();
        return;
      }
      // Contraction (outside if fr beats the worst, inside otherwise).
      const vertex& worst = simplex_.back();
      if (fr_ < worst.f) {
        for (std::size_t k = 0; k < n; ++k)
          probe_[k] = centroid_[k] + opt_.rho * (xr_[k] - centroid_[k]);
      } else {
        for (std::size_t k = 0; k < n; ++k)
          probe_[k] = centroid_[k] + opt_.rho * (worst.x[k] - centroid_[k]);
      }
      project(probe_);
      stage_ = stage::contract;
      return;
    }
    case stage::expand:
      if (value < fr_) {
        simplex_.back() = {probe_, value};
      } else {
        simplex_.back() = {std::move(xr_), fr_};
      }
      next_iteration();
      return;
    case stage::contract:
      if (value < std::min(fr_, simplex_.back().f)) {
        simplex_.back() = {probe_, value};
        next_iteration();
        return;
      }
      // Shrink towards the best vertex, one vertex per point.
      index_ = 0;
      [[fallthrough]];
    case stage::shrink: {
      if (index_ > 0) simplex_[index_].f = value;
      if (++index_ > n) {
        next_iteration();
        return;
      }
      vertex& v = simplex_[index_];
      for (std::size_t k = 0; k < n; ++k)
        v.x[k] = simplex_[0].x[k] + opt_.sigma * (v.x[k] - simplex_[0].x[k]);
      project(v.x);
      probe_ = v.x;
      stage_ = stage::shrink;
      return;
    }
    case stage::done:
      throw std::logic_error("nelder_mead: tell() after the search ended");
  }
}

void nelder_mead::next_iteration() {
  const auto by_f = [](const vertex& a, const vertex& b) { return a.f < b.f; };
  const std::size_t n = probe_.size();
  if (iteration_ < opt_.max_iterations) {
    std::sort(simplex_.begin(), simplex_.end(), by_f);
    result_.iterations = iteration_++;

    double diameter = 0.0;
    for (std::size_t i = 1; i < simplex_.size(); ++i) {
      double dist = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        const double d = simplex_[i].x[k] - simplex_[0].x[k];
        dist += d * d;
      }
      diameter = std::max(diameter, std::sqrt(dist));
    }
    const double f_spread = std::abs(simplex_.back().f - simplex_.front().f);
    if (f_spread <= opt_.f_tolerance && diameter <= opt_.x_tolerance) {
      result_.converged = true;
    } else {
      // Centroid of all but the worst vertex, then the reflection.
      centroid_.assign(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < n; ++k) centroid_[k] += simplex_[i].x[k];
      }
      for (double& c : centroid_) c /= static_cast<double>(n);
      const vertex& worst = simplex_.back();
      for (std::size_t k = 0; k < n; ++k)
        probe_[k] = centroid_[k] + opt_.alpha * (centroid_[k] - worst.x[k]);
      project(probe_);
      stage_ = stage::reflect;
      return;
    }
  }
  std::sort(simplex_.begin(), simplex_.end(), by_f);
  result_.x = simplex_.front().x;
  result_.f_value = simplex_.front().f;
  result_.evaluations = evaluations_;
  stage_ = stage::done;
}

nelder_mead_result nelder_mead::result() const { return result_; }

}  // namespace dlm::num
