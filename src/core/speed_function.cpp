#include "core/speed_function.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "core/detail/speed_kernels.hpp"

namespace fpm::core {

double SpeedFunction::intersect(double slope,
                                std::int64_t* saturations) const {
  assert(slope > 0.0);
  // The shared bisection kernel (see detail/speed_kernels.hpp): bracket
  // expansion beyond max_size() keeps the problem well-posed for any n,
  // then 200 halvings reach round-off exactness.
  return detail::generic_intersect([this](double x) { return speed(x); },
                                   max_size(), slope, saturations);
}

std::uint64_t SpeedFunction::instance_id() const noexcept {
  std::uint64_t id = instance_id_.load(std::memory_order_relaxed);
  if (id != 0) return id;
  static std::atomic<std::uint64_t> next_id{1};
  const std::uint64_t fresh = next_id.fetch_add(1, std::memory_order_relaxed);
  // A concurrent first call may have won the race; everyone keeps its id.
  if (instance_id_.compare_exchange_strong(id, fresh,
                                           std::memory_order_relaxed))
    return fresh;
  return id;
}

bool satisfies_shape_requirement(const SpeedFunction& f, int samples) {
  const double b = f.max_size();
  if (!(b > 0.0)) return false;
  // Geometric spacing puts most samples at small x where ratio changes fast.
  const double x_min = std::max(1.0, b * 1e-9);
  const double step = std::pow(b / x_min, 1.0 / (samples - 1));
  double prev_ratio = f.ratio(x_min);
  if (!(prev_ratio > 0.0)) return false;
  double x = x_min;
  for (int i = 1; i < samples; ++i) {
    x *= step;
    const double r = f.ratio(std::min(x, b));
    // Allow exact ties only within round-off; strict decrease otherwise.
    if (r > prev_ratio * (1.0 + 1e-12)) return false;
    prev_ratio = r;
  }
  return true;
}

// --------------------------------------------------------------------------

ConstantSpeed::ConstantSpeed(double s0, double max_size)
    : s0_(s0), max_size_(max_size) {
  if (!(s0 > 0.0) || !(max_size > 0.0))
    throw std::invalid_argument("ConstantSpeed: s0 and max_size must be > 0");
}

double ConstantSpeed::intersect(double slope, std::int64_t*) const {
  // The constant model has no memory wall: the crossing is exact and may
  // lie beyond the modelled range (consistent with speed() everywhere s0).
  return detail::constant_intersect(s0_, slope);
}

LinearDecaySpeed::LinearDecaySpeed(double s0, double max_size,
                                   double floor_fraction)
    : s0_(s0), max_size_(max_size), floor_(s0 * floor_fraction) {
  if (!(s0 > 0.0) || !(max_size > 0.0) || !(floor_fraction > 0.0) ||
      !(floor_fraction < 1.0))
    throw std::invalid_argument("LinearDecaySpeed: invalid parameters");
}

double LinearDecaySpeed::speed(double x) const {
  return detail::linear_decay_speed(s0_, max_size_, floor_, x);
}

double LinearDecaySpeed::intersect(double slope, std::int64_t*) const {
  // c·x = s0·(1 - x/B)  =>  x = s0 / (c + s0/B); valid while above floor,
  // then the floor plateau crossing floor/c (possibly beyond B).
  return detail::linear_decay_intersect(s0_, max_size_, floor_, slope);
}

PowerDecaySpeed::PowerDecaySpeed(double s0, double x0, double exponent,
                                 double max_size)
    : s0_(s0), x0_(x0), k_(exponent), max_size_(max_size) {
  if (!(s0 > 0.0) || !(x0 > 0.0) || !(exponent > 0.0) || !(max_size > 0.0))
    throw std::invalid_argument("PowerDecaySpeed: invalid parameters");
}

double PowerDecaySpeed::speed(double x) const {
  return detail::power_decay_speed(s0_, x0_, k_, x);
}

double PowerDecaySpeed::intersect(double slope,
                                  std::int64_t* saturations) const {
  assert(slope > 0.0);
  return detail::power_decay_intersect(s0_, x0_, k_, max_size_, slope,
                                       saturations);
}

UnimodalSpeed::UnimodalSpeed(double s_low, double s_peak, double x_peak,
                             double decay_x0, double decay_exponent,
                             double max_size)
    : s_low_(s_low),
      s_peak_(s_peak),
      x_peak_(x_peak),
      x0_(decay_x0),
      k_(decay_exponent),
      max_size_(max_size) {
  if (!(s_low > 0.0) || !(s_peak >= s_low) || !(x_peak > 0.0) ||
      !(decay_x0 > 0.0) || !(decay_exponent > 0.0) || !(max_size > x_peak))
    throw std::invalid_argument("UnimodalSpeed: invalid parameters");
}

double UnimodalSpeed::speed(double x) const {
  return detail::unimodal_speed(s_low_, s_peak_, x_peak_, x0_, k_, x);
}

SteppedSpeed::SteppedSpeed(double s0, std::vector<Step> steps, double max_size)
    : s0_(s0), steps_(std::move(steps)), max_size_(max_size) {
  if (!(s0 > 0.0) || !(max_size > 0.0))
    throw std::invalid_argument("SteppedSpeed: invalid parameters");
  double prev_at = 0.0;
  double prev_to = s0;
  for (const Step& st : steps_) {
    if (!(st.at > prev_at) || !(st.to > 0.0) || !(st.to < prev_to) ||
        !(st.width > 0.0))
      throw std::invalid_argument(
          "SteppedSpeed: steps must be ordered with decreasing plateaus");
    prev_at = st.at;
    prev_to = st.to;
  }
}

double SteppedSpeed::speed(double x) const {
  // Product of smooth sigmoids: each step multiplies the current level by
  // a factor interpolating 1 -> to/from around `at`.
  double s = s0_;
  double level = s0_;
  for (const Step& st : steps_) {
    s *= detail::stepped_step_factor(st.at, st.to, st.width, level, x);
    level = st.to;
  }
  return s;
}

ExpDecaySpeed::ExpDecaySpeed(double s0, double lambda, double max_size)
    : s0_(s0), lambda_(lambda), max_size_(max_size) {
  if (!(s0 > 0.0) || !(lambda > 0.0) || !(max_size > 0.0))
    throw std::invalid_argument("ExpDecaySpeed: invalid parameters");
}

double ExpDecaySpeed::speed(double x) const {
  // A tiny positive floor keeps times finite (and the ratio decreasing)
  // even when exp(-x/lambda) underflows for absurdly oversized problems.
  return detail::exp_decay_speed(s0_, lambda_, x);
}

double ExpDecaySpeed::intersect(double slope, std::int64_t*) const {
  assert(slope > 0.0);
  return detail::exp_decay_intersect(s0_, lambda_, max_size_, slope);
}

GranularSpeed::GranularSpeed(std::shared_ptr<const SpeedFunction> base,
                             double elements_per_item)
    : base_(std::move(base)), k_(elements_per_item) {
  if (!base_ || !(elements_per_item > 0.0))
    throw std::invalid_argument("GranularSpeed: invalid parameters");
}

double GranularSpeed::speed(double items) const {
  return base_->speed(items * k_) / k_;
}

double GranularSpeed::max_size() const { return base_->max_size() / k_; }

GranularSpeedView::GranularSpeedView(const SpeedFunction& base,
                                     double elements_per_item)
    : base_(&base), k_(elements_per_item) {
  if (!(elements_per_item > 0.0))
    throw std::invalid_argument("GranularSpeedView: invalid parameters");
}

double GranularSpeedView::speed(double items) const {
  return base_->speed(items * k_) / k_;
}

double GranularSpeedView::max_size() const { return base_->max_size() / k_; }

ScaledSpeed::ScaledSpeed(std::shared_ptr<const SpeedFunction> base,
                         double factor)
    : base_(std::move(base)), factor_(factor) {
  if (!base_ || !(factor > 0.0))
    throw std::invalid_argument("ScaledSpeed: invalid parameters");
}

double ScaledSpeed::speed(double x) const { return factor_ * base_->speed(x); }

double ScaledSpeed::max_size() const { return base_->max_size(); }

}  // namespace fpm::core
