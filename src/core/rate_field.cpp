#include "core/rate_field.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace dlm::core {
namespace {

std::string join_full(const std::vector<double>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", values[i]);
    out += buffer;
  }
  return out;
}

}  // namespace

rate_field::rate_field(growth_rate temporal) {
  family_ = family::temporal;
  label_ = temporal.label();
  rates_.push_back(std::move(temporal));
}

rate_field rate_field::separable(growth_rate base,
                                 std::vector<double> multipliers,
                                 double x_anchor) {
  if (multipliers.empty())
    throw std::invalid_argument("rate_field::separable: no multipliers");
  for (const double m : multipliers) {
    if (!(m >= 0.0) || !std::isfinite(m))
      throw std::invalid_argument(
          "rate_field::separable: multipliers must be finite and >= 0");
  }
  rate_field field;
  field.family_ = family::separable;
  field.label_ =
      "spatial(" + base.label() + "|m=" + join_full(multipliers) + ")";
  field.rates_.push_back(std::move(base));
  field.multipliers_ = std::move(multipliers);
  field.x_anchor_ = x_anchor;
  return field;
}

rate_field rate_field::per_group(std::vector<growth_rate> rates,
                                 double x_anchor) {
  if (rates.empty())
    throw std::invalid_argument("rate_field::per_group: empty rate table");
  rate_field field;
  field.family_ = family::per_group;
  field.label_ = "per-hop(";
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (i > 0) field.label_ += ';';
    field.label_ += rates[i].label();
  }
  field.label_ += ')';
  field.rates_ = std::move(rates);
  field.x_anchor_ = x_anchor;
  return field;
}

rate_field::blend rate_field::blend_at(double x, std::size_t count) const {
  blend b;
  const double pos = std::clamp(x - x_anchor_, 0.0,
                                static_cast<double>(count - 1));
  b.lo = static_cast<std::size_t>(pos);
  b.hi = std::min(b.lo + 1, count - 1);
  b.frac = std::clamp(pos - static_cast<double>(b.lo), 0.0, 1.0);
  return b;
}

double rate_field::operator()(double x, double t) const {
  switch (family_) {
    case family::temporal:
      return rates_.front()(t);
    case family::separable:
      return modulation(x) * rates_.front()(t);
    case family::per_group: {
      const blend b = blend_at(x, rates_.size());
      return rates_[b.lo](t) * (1.0 - b.frac) + rates_[b.hi](t) * b.frac;
    }
  }
  return 0.0;  // unreachable
}

double rate_field::integral(double t0, double t1, double x) const {
  if (t1 < t0)
    throw std::invalid_argument("rate_field::integral: t1 < t0");
  if (t1 == t0) return 0.0;
  switch (family_) {
    case family::temporal:
      return rates_.front().integral(t0, t1);
    case family::separable:
      return modulation(x) * rates_.front().integral(t0, t1);
    case family::per_group: {
      // r(x, ·) is a fixed convex blend of two group rates, so the exact
      // integral is the same blend of the groups' exact integrals.
      const blend b = blend_at(x, rates_.size());
      return rates_[b.lo].integral(t0, t1) * (1.0 - b.frac) +
             rates_[b.hi].integral(t0, t1) * b.frac;
    }
  }
  return 0.0;  // unreachable
}

bool rate_field::spatial() const noexcept {
  return family_ != family::temporal;
}

bool rate_field::separable_form() const noexcept {
  return family_ == family::temporal || family_ == family::separable;
}

const growth_rate& rate_field::base() const {
  if (!separable_form())
    throw std::logic_error("rate_field::base: field is not separable");
  return rates_.front();
}

double rate_field::modulation(double x) const {
  if (!separable_form())
    throw std::logic_error("rate_field::modulation: field is not separable");
  if (family_ == family::temporal) return 1.0;
  const blend b = blend_at(x, multipliers_.size());
  return multipliers_[b.lo] * (1.0 - b.frac) + multipliers_[b.hi] * b.frac;
}

void rate_field::profile(double t, std::span<const double> xs,
                         std::span<double> out) const {
  std::vector<double> scratch;
  profile(t, xs, out, scratch);
}

void rate_field::profile(double t, std::span<const double> xs,
                         std::span<double> out,
                         std::vector<double>& scratch) const {
  if (xs.size() != out.size())
    throw std::invalid_argument("rate_field::profile: size mismatch");
  if (separable_form()) {
    const double base_value = rates_.front()(t);
    for (std::size_t i = 0; i < xs.size(); ++i)
      out[i] = modulation(xs[i]) * base_value;
    return;
  }
  // Per-group: one evaluation per *group*, blended per node — the
  // per-node cost is two multiplies, not two growth_rate calls.
  scratch.resize(rates_.size());
  for (std::size_t g = 0; g < rates_.size(); ++g) scratch[g] = rates_[g](t);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const blend b = blend_at(xs[i], scratch.size());
    out[i] = scratch[b.lo] * (1.0 - b.frac) + scratch[b.hi] * b.frac;
  }
}

void rate_field::integral_profile(double t0, double t1,
                                  std::span<const double> xs,
                                  std::span<double> out) const {
  std::vector<double> scratch;
  integral_profile(t0, t1, xs, out, scratch);
}

void rate_field::integral_profile(double t0, double t1,
                                  std::span<const double> xs,
                                  std::span<double> out,
                                  std::vector<double>& scratch) const {
  if (xs.size() != out.size())
    throw std::invalid_argument("rate_field::integral_profile: size mismatch");
  if (t1 < t0)
    throw std::invalid_argument("rate_field::integral_profile: t1 < t0");
  if (separable_form()) {
    const double base_integral = rates_.front().integral(t0, t1);
    for (std::size_t i = 0; i < xs.size(); ++i)
      out[i] = modulation(xs[i]) * base_integral;
    return;
  }
  // Per-group: one exact integral per *group*, blended per node (the
  // solver calls this once per time step over the whole grid).
  scratch.resize(rates_.size());
  for (std::size_t g = 0; g < rates_.size(); ++g)
    scratch[g] = rates_[g].integral(t0, t1);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const blend b = blend_at(xs[i], scratch.size());
    out[i] = scratch[b.lo] * (1.0 - b.frac) + scratch[b.hi] * b.frac;
  }
}

}  // namespace dlm::core
