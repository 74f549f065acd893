#include "core/piecewise.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "core/detail/speed_kernels.hpp"

namespace fpm::core {
namespace {

void validate_points(const std::vector<SpeedPoint>& pts) {
  if (pts.empty())
    throw std::invalid_argument("PiecewiseLinearSpeed: no points");
  double prev_x = -1.0;
  bool any_positive = false;
  for (const SpeedPoint& p : pts) {
    if (!(p.size > prev_x))
      throw std::invalid_argument(
          "PiecewiseLinearSpeed: sizes must be strictly increasing");
    if (!(p.speed >= 0.0) || !std::isfinite(p.speed))
      throw std::invalid_argument(
          "PiecewiseLinearSpeed: speeds must be finite and >= 0");
    any_positive |= p.speed > 0.0;
    prev_x = p.size;
  }
  if (!(pts.front().size > 0.0))
    throw std::invalid_argument(
        "PiecewiseLinearSpeed: first size must be > 0");
  if (!any_positive)
    throw std::invalid_argument(
        "PiecewiseLinearSpeed: at least one speed must be positive");
}

/// Checks the strictly-decreasing-ratio requirement at the breakpoints; for
/// a piece-wise-linear curve with a flat head this is sufficient: on a
/// linear segment s(x) = alpha + beta*x the ratio alpha/x + beta is monotone
/// between its endpoint values (decreasing iff alpha > 0, increasing iff
/// alpha < 0 which the breakpoint check excludes, constant iff alpha == 0).
bool ratio_strictly_decreasing(const std::vector<SpeedPoint>& pts) {
  double prev_ratio = std::numeric_limits<double>::infinity();
  for (const SpeedPoint& p : pts) {
    const double r = p.speed / p.size;
    if (!(r < prev_ratio)) return false;
    prev_ratio = r;
  }
  return true;
}

}  // namespace

PiecewiseLinearSpeed::PiecewiseLinearSpeed(std::vector<SpeedPoint> points)
    : points_(std::move(points)) {
  validate_points(points_);
  if (!ratio_strictly_decreasing(points_))
    throw std::invalid_argument(
        "PiecewiseLinearSpeed: speed(x)/x must be strictly decreasing; "
        "pre-condition noisy data with repair_shape_requirement()");
  // A tiny positive floor keeps speed() > 0 beyond the modelled range so
  // that intersections for very shallow lines stay well-defined.
  double max_speed = 0.0;
  for (const SpeedPoint& p : points_) max_speed = std::max(max_speed, p.speed);
  floor_speed_ = std::max(1e-9, max_speed * 1e-9);
  // Hoist the final-segment slope out of the per-call extrapolation: a
  // falling segment continues its trend, a flat/rising one (slope kept at
  // >= 0) extends as a constant — speed never grows beyond the modelled
  // range (and the ratio requirement would otherwise eventually fail).
  if (points_.size() >= 2) {
    const SpeedPoint& p0 = points_[points_.size() - 2];
    const SpeedPoint& p1 = points_.back();
    tail_slope_ = (p1.speed - p0.speed) / (p1.size - p0.size);
  }
}

double PiecewiseLinearSpeed::speed(double x) const {
  if (x <= points_.front().size) return points_.front().speed;
  if (x >= points_.back().size) {
    const SpeedPoint& p1 = points_.back();
    return detail::piecewise_tail_speed(p1.speed, tail_slope_, floor_speed_,
                                        x - p1.size);
  }
  // Binary search for the segment containing x.
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), x,
      [](double v, const SpeedPoint& p) { return v < p.size; });
  const SpeedPoint& hi = *it;
  const SpeedPoint& lo = *(it - 1);
  return detail::piecewise_segment_speed(lo.size, lo.speed, hi.size, hi.speed,
                                         x);
}

double PiecewiseLinearSpeed::intersect(double slope, std::int64_t*) const {
  assert(slope > 0.0);
  const SpeedPoint& last = points_.back();
  const double b = last.size;
  if (speed(b) >= slope * b) {
    // Crossing beyond the modelled range: speed() there continues the last
    // segment's cached trend clamped at the positive floor. Try the
    // extended segment first, then the floor plateau.
    return detail::piecewise_tail_intersect(b, last.speed, tail_slope_,
                                            floor_speed_, slope);
  }
  // Flat head: s = s0 for x <= x0, so if the line reaches s0 before x0 the
  // crossing is s0/slope.
  const SpeedPoint& first = points_.front();
  if (slope * first.size >= first.speed)
    return first.speed / slope;
  // Find the first breakpoint whose ratio drops below the slope; the
  // crossing lies on the segment ending there. Ratios are strictly
  // decreasing, enabling binary search.
  std::size_t lo = 0;                    // ratio(points_[lo]) > slope
  std::size_t hi = points_.size() - 1;   // ratio(points_[hi]) < slope (checked above)
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (points_[mid].speed > slope * points_[mid].size)
      lo = mid;
    else
      hi = mid;
  }
  const SpeedPoint& p0 = points_[lo];
  const SpeedPoint& p1 = points_[hi];
  // Solve c*x = s0 + m*(x - x0) on [x0, x1], clamped against round-off.
  const double m = (p1.speed - p0.speed) / (p1.size - p0.size);
  return detail::piecewise_segment_intersect(p0.size, p0.speed, m, slope,
                                             p0.size, p1.size);
}

std::vector<SpeedPoint> repair_shape_requirement(
    std::vector<SpeedPoint> points) {
  if (points.empty()) return points;
  double prev_ratio = std::numeric_limits<double>::infinity();
  for (SpeedPoint& p : points) {
    const double bound = prev_ratio * p.size;
    // Strictly below the predecessor's ratio; shave one part in 10^9 so the
    // strict inequality survives round-off.
    if (p.speed >= bound) p.speed = bound * (1.0 - 1e-9);
    if (p.speed < 0.0) p.speed = 0.0;
    prev_ratio = p.speed / p.size;
  }
  return points;
}

PerformanceBand::PerformanceBand(std::vector<SpeedPoint> lower,
                                 std::vector<SpeedPoint> upper)
    : lower_(std::move(lower)), upper_(std::move(upper)) {
  if (lower_.size() != upper_.size() || lower_.empty())
    throw std::invalid_argument("PerformanceBand: envelope size mismatch");
  for (std::size_t i = 0; i < lower_.size(); ++i) {
    if (lower_[i].size != upper_[i].size)
      throw std::invalid_argument("PerformanceBand: breakpoint x mismatch");
    if (lower_[i].speed > upper_[i].speed)
      throw std::invalid_argument("PerformanceBand: lower above upper");
  }
}

PiecewiseLinearSpeed PerformanceBand::center() const {
  std::vector<SpeedPoint> pts(lower_.size());
  for (std::size_t i = 0; i < lower_.size(); ++i)
    pts[i] = {lower_[i].size, 0.5 * (lower_[i].speed + upper_[i].speed)};
  return PiecewiseLinearSpeed(repair_shape_requirement(std::move(pts)));
}

PiecewiseLinearSpeed PerformanceBand::lower_curve() const {
  return PiecewiseLinearSpeed(
      repair_shape_requirement({lower_.begin(), lower_.end()}));
}

PiecewiseLinearSpeed PerformanceBand::upper_curve() const {
  return PiecewiseLinearSpeed(
      repair_shape_requirement({upper_.begin(), upper_.end()}));
}

double PerformanceBand::relative_width(double x) const {
  const PiecewiseLinearSpeed lo = lower_curve();
  const PiecewiseLinearSpeed hi = upper_curve();
  const double centre = 0.5 * (lo.speed(x) + hi.speed(x));
  return centre <= 0.0 ? 0.0 : (hi.speed(x) - lo.speed(x)) / centre;
}

}  // namespace fpm::core
