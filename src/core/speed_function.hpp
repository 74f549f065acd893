// The functional performance model (FPM) of Lastovetsky & Reddy (IPDPS'04):
// the speed of a processor is a continuous, relatively smooth function of the
// problem size, rather than a single number.
//
// Conventions
// -----------
//  * The problem size x is the amount of data stored and processed by the
//    algorithm, measured in *elements* (paper §2: e.g. 3·n² for a square
//    matrix multiplication).
//  * speed(x) is the absolute speed a processor exhibits when solving a
//    problem of size x, in any fixed unit (the paper uses MFlops). For the
//    partitioning geometry only *relative* speeds matter, so the unit is
//    opaque to the algorithms as long as it is consistent across processors
//    and the work of a partition is proportional to its element count.
//  * The execution time of a problem of size x is proportional to
//    x / speed(x).
//
// Shape requirement (paper §2, Figure 5)
// --------------------------------------
// Every straight line through the origin must intersect the graph of the
// speed function in exactly one point. Equivalently, the *ratio*
// r(x) = speed(x)/x must be strictly decreasing on (0, max_size]. This also
// implies the paper's explicit assumption that execution time x/speed(x) is
// non-decreasing in x. All concrete families below satisfy the requirement
// by construction; fpm::core::satisfies_shape_requirement() verifies it
// numerically for externally supplied functions.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace fpm::core {

/// Abstract speed-versus-problem-size function s(x).
///
/// Implementations must be defined for x in [0, max_size()], continuous,
/// non-negative, with speed(0+) > 0 and speed(x)/x strictly decreasing
/// (the single-intersection shape requirement).
class SpeedFunction {
 public:
  SpeedFunction() = default;
  /// A copy is a different object: it gets its own instance_id().
  SpeedFunction(const SpeedFunction&) noexcept {}
  /// Assignment changes what the object models, so it drops the identity
  /// the old content was keyed by; the next instance_id() is a fresh one.
  SpeedFunction& operator=(const SpeedFunction&) noexcept {
    instance_id_.store(0, std::memory_order_relaxed);
    return *this;
  }
  virtual ~SpeedFunction() = default;

  /// Absolute speed at problem size x (x in elements). Must accept any
  /// x >= 0; values beyond max_size() should continue the trend (typically
  /// approaching zero) so callers never need to clamp.
  virtual double speed(double x) const = 0;

  /// Upper end of the modelled size range (the paper's point b: a size at
  /// which the processor is effectively paging itself to a halt).
  virtual double max_size() const = 0;

  /// Solves c·x = speed(x) for x in (0, max_size], i.e. intersects the graph
  /// with a line of slope c through the origin. Returns max_size() when the
  /// line passes below the whole graph (c <= speed(max_size())/max_size())
  /// and 0 when c is +infinity-like. The default implementation performs a
  /// bisection on the strictly decreasing ratio speed(x)/x; subclasses with
  /// closed forms may override. A bisection whose bracket expansion
  /// saturates (see PartitionStats::bracket_saturations) adds 1 to
  /// `*saturations` when the caller passes a count; overrides that bisect
  /// (or solve through other models) forward it.
  virtual double intersect(double slope,
                           std::int64_t* saturations = nullptr) const;

  /// speed(x)/x, the quantity that is strictly decreasing in x.
  double ratio(double x) const { return speed(x) / x; }

  /// Execution time of a problem of size x in the reciprocal speed unit
  /// (elements per speed-unit). Proportional to wall-clock time.
  double time(double x) const { return x <= 0.0 ? 0.0 : x / speed(x); }

  /// Process-unique, never-reused id of this object, assigned on the first
  /// call (objects that are never asked pay nothing). The compiled layer
  /// fingerprints models it cannot read structurally by this id, so a
  /// destroyed model whose storage is reused by a new one never inherits
  /// its cache key. Thread-safe; never 0.
  std::uint64_t instance_id() const noexcept;

 private:
  mutable std::atomic<std::uint64_t> instance_id_{0};
};

/// Numerically checks the single-intersection shape requirement by sampling
/// `samples` points geometrically spaced over (0, f.max_size()] and testing
/// that the ratio speed(x)/x is strictly decreasing. Returns true when no
/// violation is found.
bool satisfies_shape_requirement(const SpeedFunction& f, int samples = 2048);

// ---------------------------------------------------------------------------
// Analytic families. These model the experimentally observed curve shapes of
// the paper (Figures 1, 5 and 19) and supply ground truth for tests and the
// machine simulator.
// ---------------------------------------------------------------------------

/// The classic single-number model: s(x) = s0 on (0, B].
class ConstantSpeed final : public SpeedFunction {
 public:
  ConstantSpeed(double s0, double max_size);
  double speed(double) const override { return s0_; }
  double max_size() const override { return max_size_; }
  double intersect(double slope, std::int64_t* = nullptr) const override;

  double s0() const noexcept { return s0_; }

 private:
  double s0_;
  double max_size_;
};

/// Linearly decaying speed: s(x) = s0·max(floor, 1 - x/B). Models a smooth
/// "inefficient memory reference pattern" curve (Figure 5, s1).
class LinearDecaySpeed final : public SpeedFunction {
 public:
  /// floor_fraction keeps the speed at floor_fraction*s0 beyond B so the
  /// function stays positive (default matches the paper's "practically
  /// zero" endpoint).
  LinearDecaySpeed(double s0, double max_size, double floor_fraction = 1e-3);
  double speed(double x) const override;
  double max_size() const override { return max_size_; }
  double intersect(double slope, std::int64_t* = nullptr) const override;

  double s0() const noexcept { return s0_; }
  double floor_speed() const noexcept { return floor_; }

 private:
  double s0_;
  double max_size_;
  double floor_;
};

/// Smooth sigmoid-like decay: s(x) = s0 / (1 + (x/x0)^k), strictly
/// decreasing; with small k this is the smooth "MatrixMult" shape and with
/// large k it approaches a step (cache/paging cliff).
class PowerDecaySpeed final : public SpeedFunction {
 public:
  PowerDecaySpeed(double s0, double x0, double exponent, double max_size);
  double speed(double x) const override;
  double max_size() const override { return max_size_; }
  /// Closed form: bracketed Newton on slope·x·(1+(x/x0)^k) = s0, with
  /// bisection fallback steps whenever Newton would leave the sign bracket.
  double intersect(double slope, std::int64_t* = nullptr) const override;

  double s0() const noexcept { return s0_; }
  double x0() const noexcept { return x0_; }
  double exponent() const noexcept { return k_; }

 private:
  double s0_;
  double x0_;
  double k_;
  double max_size_;
};

/// Rising-then-falling speed (Figure 5, s2): a concave ramp from s_low at 0
/// to s_peak at x_peak, followed by a smooth power decay towards ~0 at B.
/// The ramp is concave with a positive intercept, which preserves the
/// strictly decreasing ratio.
class UnimodalSpeed final : public SpeedFunction {
 public:
  UnimodalSpeed(double s_low, double s_peak, double x_peak, double decay_x0,
                double decay_exponent, double max_size);
  double speed(double x) const override;
  double max_size() const override { return max_size_; }

  double s_low() const noexcept { return s_low_; }
  double s_peak() const noexcept { return s_peak_; }
  double x_peak() const noexcept { return x_peak_; }
  double decay_x0() const noexcept { return x0_; }
  double decay_exponent() const noexcept { return k_; }

 private:
  double s_low_;
  double s_peak_;
  double x_peak_;
  double x0_;
  double k_;
  double max_size_;
};

/// Multi-plateau curve with smooth (tanh) transitions at memory-hierarchy
/// boundaries — the "carefully designed application" shape of Figure 1(a,b):
/// near-constant plateaus separated by drops at the cache and paging points.
class SteppedSpeed final : public SpeedFunction {
 public:
  struct Step {
    double at;    ///< problem size where the drop is centred
    double to;    ///< plateau speed after the drop
    double width; ///< transition half-width (>0, smaller = sharper cliff)
  };
  /// `s0` is the initial plateau; steps must be ordered by `at` with
  /// strictly decreasing `to`.
  SteppedSpeed(double s0, std::vector<Step> steps, double max_size);
  double speed(double x) const override;
  double max_size() const override { return max_size_; }

  double s0() const noexcept { return s0_; }
  const std::vector<Step>& steps() const noexcept { return steps_; }

 private:
  double s0_;
  std::vector<Step> steps_;
  double max_size_;
};

/// Exponentially decaying speed s(x) = s0·exp(-x/lambda). The optimal line
/// slope for this family decays exponentially in n, which is the pathological
/// case where the basic angle-bisection algorithm degrades to O(p·n) and the
/// modified algorithm keeps its O(p²·log n) bound (paper §2).
class ExpDecaySpeed final : public SpeedFunction {
 public:
  ExpDecaySpeed(double s0, double lambda, double max_size);
  double speed(double x) const override;
  double max_size() const override { return max_size_; }
  /// Closed form: bracketed Newton on slope·x = s0·exp(-x/lambda) — the
  /// family whose optimal slope decays exponentially in n, so this is the
  /// hottest generic-bisection call site it replaces.
  double intersect(double slope, std::int64_t* = nullptr) const override;

  double s0() const noexcept { return s0_; }
  double lambda() const noexcept { return lambda_; }

 private:
  double s0_;
  double lambda_;
  double max_size_;
};

/// Wraps another speed function, scaling speed by `factor` (e.g. to model a
/// persistent external load shifting the whole band down, paper §1).
class ScaledSpeed final : public SpeedFunction {
 public:
  ScaledSpeed(std::shared_ptr<const SpeedFunction> base, double factor);
  double speed(double x) const override;
  double max_size() const override;

  const SpeedFunction& base() const noexcept { return *base_; }
  double factor() const noexcept { return factor_; }

 private:
  std::shared_ptr<const SpeedFunction> base_;
  double factor_;
};

/// Re-parameterizes a speed function from elements to coarser items (e.g.
/// matrix rows of n elements each, or column blocks): with k elements per
/// item, speed_items(r) = base(r·k)/k, so the item-count execution time
/// r/speed_items(r) equals the element-count time (r·k)/base(r·k) and the
/// shape requirement is inherited. Partitioning r items with this wrapper is
/// exactly partitioning r·k elements at item granularity.
class GranularSpeed final : public SpeedFunction {
 public:
  GranularSpeed(std::shared_ptr<const SpeedFunction> base,
                double elements_per_item);
  double speed(double items) const override;
  double max_size() const override;

  const SpeedFunction& base() const noexcept { return *base_; }
  double elements_per_item() const noexcept { return k_; }

 private:
  std::shared_ptr<const SpeedFunction> base_;
  double k_;
};

/// Non-owning variant of GranularSpeed for stack-scoped use (the base must
/// outlive this object).
class GranularSpeedView final : public SpeedFunction {
 public:
  GranularSpeedView(const SpeedFunction& base, double elements_per_item);
  double speed(double items) const override;
  double max_size() const override;

  const SpeedFunction& base() const noexcept { return *base_; }
  double elements_per_item() const noexcept { return k_; }

 private:
  const SpeedFunction* base_;
  double k_;
};

/// Non-owning list of processor speed functions, the form consumed by all
/// partitioning algorithms. Pointers must outlive the call.
using SpeedList = std::vector<const SpeedFunction*>;

/// Convenience: builds a SpeedList view over owned functions.
template <typename Container>
SpeedList make_speed_list(const Container& owned) {
  SpeedList list;
  list.reserve(owned.size());
  for (const auto& f : owned) list.push_back(&*f);
  return list;
}

}  // namespace fpm::core
