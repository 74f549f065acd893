#include "core/detail/search_state.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fpm::core::detail {

namespace {

// Warm-bracket tuning. The first probes straddle the hinted slope at
// 1 ± ~2^-12 (≈0.02%) — tight enough that a near-exact hint leaves only a
// handful of integers inside the bracket and the bisection finishes in a
// few steps. Each side that fails to straddle n widens quartically in log
// space (2^-12 → 2^-10 → 2^-8 → ...), so percent-level drift costs two or
// three extra line solves and the abandon threshold (spread 16x) is
// reached after seven widenings. The budget caps the line solves a garbage
// hint can burn before the search falls back to the cold bracket.
constexpr double kWarmInitialSpread = 1.0 + 0x1p-12;
constexpr double kWarmMaxSpread = 16.0;
constexpr int kWarmProbeBudget = 12;

// Saturation point of the per-processor candidate count (see
// interior_count): far above any integer size a partition can hold, and
// small enough that two capped floors subtract without overflow.
constexpr double kInteriorCountCap = 0x1p62;

}  // namespace

PartitionResult zero_result(const char* algorithm, std::size_t p) {
  PartitionResult result;
  result.stats.algorithm = algorithm;
  result.distribution.counts.assign(p, 0);
  return result;
}

SearchState::SearchState(const CompiledSpeedList& models, std::int64_t n,
                         const SolveContext& ctx,
                         const SearchObserver* observer,
                         const PartitionHint* hint)
    : models_(models),
      n_(static_cast<double>(n)),
      ctx_(ctx),
      observer_(observer) {
  ctx_.counters = {};
  if (hint != nullptr && hint->usable())
    warmstart_ = try_warm_bracket(*hint, n) ? WarmStart::Hit : WarmStart::Stale;
  if (warmstart_ != WarmStart::Hit) {
    bracket_ = detect_bracket(models_, n, &ctx_);
    small_ = sizes_at(models_, bracket_.hi_slope, &ctx_);
    large_ = sizes_at(models_, bracket_.lo_slope, &ctx_);
  }
  intersections_ += static_cast<int>(2 * models_.size());
  if (observing())
    emit(SearchStepKind::Bracket, bracket_.hi_slope, false, kNoProcessor);
}

bool SearchState::try_warm_bracket(const PartitionHint& hint, std::int64_t n) {
  // A hint computed against different models is stale by definition; the
  // fingerprint check catches silent model swaps behind an unchanged call
  // site. fingerprint == 0 opts out (callers whose curves legitimately
  // change every round rely on the bracket verification below instead).
  if (hint.fingerprint != 0 && models_.fingerprint() != hint.fingerprint)
    return false;
  // When n drifted, rescale: sizes at a slope scale roughly like 1/slope,
  // so the new optimum sits near slope·(old n / new n).
  double center = hint.slope;
  if (hint.n > 0 && hint.n != n)
    center *= static_cast<double>(hint.n) / static_cast<double>(n);
  if (!std::isfinite(center) || center <= 0.0) return false;

  const double nd = static_cast<double>(n);
  int budget = kWarmProbeBudget;
  const auto solve = [&](double slope, std::vector<double>& sizes) {
    sizes = sizes_at(models_, slope, &ctx_);
    --budget;
    double total = 0.0;
    for (const double x : sizes) total += x;
    return total;
  };

  // Steep side: need total <= n at hi. A good hint verifies on the first
  // probe; otherwise widen until it does or the spread says the optimum
  // moved too far for the hint to be worth anything.
  double f_hi = kWarmInitialSpread;
  double hi = center * f_hi;
  std::vector<double> hi_sizes;
  double hi_total = solve(hi, hi_sizes);
  while (hi_total > nd && budget > 0) {
    f_hi *= f_hi;
    f_hi *= f_hi;
    if (f_hi > kWarmMaxSpread) return false;
    hi = center * f_hi;
    if (!std::isfinite(hi)) return false;
    hi_total = solve(hi, hi_sizes);
  }
  if (hi_total > nd) return false;

  // Shallow side: need total >= n at lo.
  double f_lo = kWarmInitialSpread;
  double lo = center / f_lo;
  std::vector<double> lo_sizes;
  double lo_total = solve(lo, lo_sizes);
  while (lo_total < nd && budget > 0) {
    f_lo *= f_lo;
    f_lo *= f_lo;
    if (f_lo > kWarmMaxSpread) return false;
    lo = center / f_lo;
    if (!(lo > 0.0)) return false;
    lo_total = solve(lo, lo_sizes);
  }
  if (lo_total < nd) return false;

  bracket_.lo_slope = lo;
  bracket_.hi_slope = hi;
  small_ = std::move(hi_sizes);
  large_ = std::move(lo_sizes);
  return true;
}

std::int64_t SearchState::interior_count(std::size_t i) const {
  // Integers k with small[i] < k <= large[i]. Intersections are >= 0; the
  // clamp keeps both floors representable, so the difference cannot
  // overflow.
  const double lo = small_[i];
  const double hi = large_[i];
  if (hi <= lo) return 0;
  const auto capped_floor = [](double x) {
    return static_cast<std::int64_t>(
        std::clamp(std::floor(x), 0.0, kInteriorCountCap));
  };
  return capped_floor(hi) - capped_floor(lo);
}

std::int64_t SearchState::total_interior() const {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::int64_t total = 0;
  for (std::size_t i = 0; i < small_.size(); ++i) {
    const std::int64_t c = interior_count(i);
    total = c > kMax - total ? kMax : total + c;
  }
  return total;
}

bool SearchState::converged() const {
  // No integer strictly inside (small[i], large[i]) for any processor. A
  // candidate equal to a bracket endpoint is already represented by that
  // line, so strict interiority is the right test.
  for (std::size_t i = 0; i < large_.size(); ++i) {
    double k = std::floor(large_[i]);
    if (k == large_[i]) k -= 1.0;  // want strictly below the shallow line
    if (k > small_[i]) return false;
  }
  return true;
}

PartitionResult SearchState::finish(const char* algorithm, std::int64_t n,
                                    const std::optional<PartitionHint>& hint) {
  PartitionResult result;
  PartitionStats& stats = result.stats;
  stats.algorithm = algorithm;
  stats.iterations = iterations_;
  stats.intersections = intersections_;
  stats.final_slope = bracket_.hi_slope;
  stats.search_speed_evals = ctx_.counters.speed_evals;
  stats.search_intersect_solves = ctx_.counters.intersect_solves;
  result.distribution = fine_tune(models_, n, small_, &ctx_);
  stats.speed_evals = ctx_.counters.speed_evals;
  stats.intersect_solves = ctx_.counters.intersect_solves;
  stats.bracket_saturations = ctx_.counters.bracket_saturations;
  stats.warmstart = warmstart_;
  if (warmstart_ == WarmStart::Hit)
    stats.iterations_saved =
        std::max(0, hint->baseline_iterations - iterations_);
  return result;
}

void SearchState::emit(SearchStepKind kind, double slope, bool kept_low,
                       std::size_t processor) const {
  SearchStep step;
  step.iteration = iterations_;
  step.kind = kind;
  step.slope = slope;
  step.lo_slope = bracket_.lo_slope;
  step.hi_slope = bracket_.hi_slope;
  step.interior = total_interior();
  step.kept_low = kept_low;
  step.processor = processor;
  (*observer_)(step);
}

void SearchState::split_at(double slope, SearchStepKind kind,
                           std::size_t processor) {
  ++iterations_;
  std::vector<double> sizes = sizes_at(models_, slope, &ctx_);
  intersections_ += static_cast<int>(models_.size());
  double sum = 0.0;
  for (const double x : sizes) sum += x;
  bool kept_low;
  if (sum < n_) {
    // Line too steep: the optimum lies in the shallower (lower) region.
    bracket_.hi_slope = slope;
    small_ = std::move(sizes);
    kept_low = true;
  } else {
    bracket_.lo_slope = slope;
    large_ = std::move(sizes);
    kept_low = false;
  }
  if (observing()) emit(kind, slope, kept_low, processor);
}

void SearchState::degenerate_step(double slope) {
  ++iterations_;
  if (observing())
    emit(SearchStepKind::Degenerate, slope, false, kNoProcessor);
}

void SearchState::step_basic(bool bisect_angles) {
  double mid;
  if (bisect_angles) {
    const double theta =
        0.5 * (std::atan(bracket_.lo_slope) + std::atan(bracket_.hi_slope));
    mid = std::tan(theta);
  } else {
    mid = 0.5 * (bracket_.lo_slope + bracket_.hi_slope);
  }
  // Guard against a degenerate midpoint (possible once the interval reaches
  // round-off width): nudge to the geometric mean, then give up gracefully
  // by reusing an endpoint, which converged() will catch via the x-brackets.
  if (!(mid > bracket_.lo_slope) || !(mid < bracket_.hi_slope))
    mid = std::sqrt(bracket_.lo_slope * bracket_.hi_slope);
  if (!(mid > bracket_.lo_slope) || !(mid < bracket_.hi_slope)) {
    degenerate_step(mid);
    return;
  }
  split_at(mid, SearchStepKind::Basic);
}

void SearchState::step_custom(double slope) {
  if (!(slope > bracket_.lo_slope) || !(slope < bracket_.hi_slope))
    slope = 0.5 * (bracket_.lo_slope + bracket_.hi_slope);
  if (!(slope > bracket_.lo_slope) || !(slope < bracket_.hi_slope)) {
    degenerate_step(slope);
    return;
  }
  split_at(slope, SearchStepKind::Custom);
}

void SearchState::step_modified() {
  // Processor whose graph carries the most candidate solutions.
  std::size_t best = 0;
  std::int64_t best_count = -1;
  for (std::size_t i = 0; i < models_.size(); ++i) {
    const std::int64_t c = interior_count(i);
    if (c > best_count) {
      best_count = c;
      best = i;
    }
  }
  const double m = 0.5 * (small_[best] + large_[best]);
  double slope = 0.0;
  if (m > 0.0) {
    ++ctx_.counters.speed_evals;
    slope = models_.speed(best, m) / m;
  }
  // m lies strictly between the two intersections of graph `best`, so by the
  // decreasing-ratio property the new slope lies strictly inside the slope
  // interval; re-bisect on tangents if round-off breaks that.
  if (slope > bracket_.lo_slope && slope < bracket_.hi_slope) {
    split_at(slope, SearchStepKind::Modified, best);
    return;
  }
  slope = 0.5 * (bracket_.lo_slope + bracket_.hi_slope);
  if (!(slope > bracket_.lo_slope) || !(slope < bracket_.hi_slope)) {
    degenerate_step(slope);
    return;
  }
  split_at(slope, SearchStepKind::Basic);
}

}  // namespace fpm::core::detail
