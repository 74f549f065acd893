// Piece-wise-linear speed functions and performance bands.
//
// The paper's practical procedure (§3.1, Figure 14/20) approximates each
// processor's real-life speed curve by a piece-wise linear function built
// from a few experimentally obtained points, together with a band of width
// ±epsilon capturing workload fluctuations. PiecewiseLinearSpeed is the
// partitioning-facing single curve; PerformanceBand keeps the lower/upper
// envelopes produced by the builder.
#pragma once

#include <span>
#include <vector>

#include "core/speed_function.hpp"

namespace fpm::core {

/// One experimental point of a speed curve: the processor runs a problem of
/// `size` elements at `speed` speed units.
struct SpeedPoint {
  double size = 0.0;
  double speed = 0.0;
};

/// Continuous piece-wise-linear speed function through a sorted list of
/// points (x_0 < x_1 < ... < x_{m-1}).
///
///  * For x < x_0 the speed is the constant speed(x_0) (the paper measures
///    the first point at a size fitting in the top-level cache; below it the
///    speed is flat).
///  * For x > x_{m-1} the speed continues the last segment's trend, clamped
///    to a small positive floor so the function never reaches zero exactly.
///
/// The constructor validates the paper's shape requirement — the ratio
/// speed(x)/x strictly decreasing — which for a piece-wise-linear curve
/// reduces to checking the breakpoints; construction throws on violation.
/// Noisy measured points can be pre-conditioned with
/// repair_shape_requirement().
class PiecewiseLinearSpeed final : public SpeedFunction {
 public:
  /// `points` must be non-empty, sorted by strictly increasing size, with
  /// non-negative speeds and at least one positive speed.
  explicit PiecewiseLinearSpeed(std::vector<SpeedPoint> points);

  double speed(double x) const override;
  double max_size() const override { return points_.back().size; }

  /// Closed-form intersection: binary-searches the breakpoint whose ratio
  /// brackets the slope, then solves the linear segment directly. O(log m).
  double intersect(double slope, std::int64_t* = nullptr) const override;

  std::span<const SpeedPoint> points() const noexcept { return points_; }

  /// Positive floor used beyond the last point.
  double floor_speed() const noexcept { return floor_speed_; }
  /// Cached slope of the final segment (0 for a single point); negative
  /// values drive the beyond-the-range extrapolation, which is therefore
  /// allocation- and division-free per call.
  double tail_slope() const noexcept { return tail_slope_; }

 private:
  std::vector<SpeedPoint> points_;
  double floor_speed_;      ///< positive floor used beyond the last point
  double tail_slope_ = 0.0; ///< final-segment slope, hoisted from speed()
};

/// Adjusts a sorted point list so the ratio speed/size is strictly
/// decreasing, by lowering any breakpoint speed that rises above the ratio
/// bound implied by its predecessor. This is the minimal monotone repair for
/// measurement noise: points already satisfying the requirement are returned
/// unchanged.
std::vector<SpeedPoint> repair_shape_requirement(std::vector<SpeedPoint> points);

/// A band of speed curves (paper §1, Figure 2): lower and upper envelopes
/// over the same breakpoints. The width reflects workload fluctuation; the
/// partitioner consumes the centre curve.
class PerformanceBand {
 public:
  /// Both vectors must share sizes (same x per index) and satisfy
  /// lower[i].speed <= upper[i].speed.
  PerformanceBand(std::vector<SpeedPoint> lower, std::vector<SpeedPoint> upper);

  /// Centre curve (arithmetic mean of the envelopes), repaired to satisfy
  /// the shape requirement.
  PiecewiseLinearSpeed center() const;

  /// Lower / upper envelope curves (also repaired).
  PiecewiseLinearSpeed lower_curve() const;
  PiecewiseLinearSpeed upper_curve() const;

  /// Band half-width at x as a fraction of the centre speed.
  double relative_width(double x) const;

  std::span<const SpeedPoint> lower_points() const noexcept { return lower_; }
  std::span<const SpeedPoint> upper_points() const noexcept { return upper_; }

 private:
  std::vector<SpeedPoint> lower_;
  std::vector<SpeedPoint> upper_;
};

}  // namespace fpm::core
