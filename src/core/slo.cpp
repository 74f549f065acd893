#include "core/slo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

namespace fpm::core {

const char* to_string(Priority priority) noexcept {
  switch (priority) {
    case Priority::Low:
      return "low";
    case Priority::Normal:
      return "normal";
    case Priority::High:
      return "high";
  }
  return "?";
}

const char* to_string(ServeStatus status) noexcept {
  switch (status) {
    case ServeStatus::Ok:
      return "ok";
    case ServeStatus::Degraded:
      return "degraded";
    case ServeStatus::Shed:
      return "shed";
  }
  return "?";
}

const char* to_string(ShedReason reason) noexcept {
  switch (reason) {
    case ShedReason::None:
      return "none";
    case ShedReason::Admission:
      return "admission";
    case ShedReason::QueueFull:
      return "queue_full";
    case ShedReason::Expired:
      return "expired";
    case ShedReason::Shutdown:
      return "shutdown";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// degraded_answer
// ---------------------------------------------------------------------------

namespace {

/// Log-space refinement steps tightening the makespan lower bound. Six
/// halvings shrink the bracket's log-width by 64x, which in practice puts
/// c_hi within a percent of the optimal slope at a cost of 6p solves.
constexpr int kBoundRefineSteps = 6;
/// Geometric-expansion cap for the initial upper slope; 1/makespan is
/// already a lower bound on c*, so a few doublings always suffice for any
/// model whose total size is not pathologically flat in the slope.
constexpr int kBoundExpandSteps = 200;

/// 128-bit intermediate for the exact prev_i * n rescale products.
__extension__ using int128 = __int128;

}  // namespace

std::optional<DegradedAnswer> degraded_answer(
    const SpeedList& speeds, std::int64_t n,
    std::span<const std::int64_t> prev_counts, std::int64_t prev_n) {
  const std::size_t p = speeds.size();
  if (p == 0 || n < 1 || prev_n < 1 || prev_counts.size() != p)
    return std::nullopt;
  std::int64_t prev_total = 0;
  for (const std::int64_t c : prev_counts) {
    if (c < 0) return std::nullopt;
    prev_total += c;
  }
  if (prev_total < 1) return std::nullopt;

  // Linear rescale by n/prev_total with largest-remainder rounding: each
  // processor gets floor(prev_i * n / prev_total), and the r < p leftover
  // elements go to the largest fractional remainders (ties to lower index).
  // 128-bit intermediates keep prev_i * n exact for any int64 workload.
  DegradedAnswer out;
  out.distribution.counts.assign(p, 0);
  std::vector<std::pair<std::int64_t, std::size_t>> remainders;  // (-rem, i)
  remainders.reserve(p);
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < p; ++i) {
    const auto scaled = static_cast<int128>(prev_counts[i]) * n;
    const auto whole = static_cast<std::int64_t>(scaled / prev_total);
    const auto rem = static_cast<std::int64_t>(scaled % prev_total);
    out.distribution.counts[i] = whole;
    assigned += whole;
    remainders.emplace_back(-rem, i);
  }
  std::sort(remainders.begin(), remainders.end());
  const std::int64_t leftover = n - assigned;  // < p by construction
  for (std::int64_t j = 0; j < leftover; ++j)
    ++out.distribution.counts[remainders[static_cast<std::size_t>(j)].second];

  out.makespan = makespan(speeds, out.distribution);
  if (!std::isfinite(out.makespan) || out.makespan <= 0.0)
    return std::nullopt;

  // Lower bound on the exact optimum: any feasible allocation of n elements
  // has makespan >= 1/c for every slope c with total_size_at(c) <= n
  // (single-crossing: time_i <= T puts every point on or above the slope-
  // 1/T line, so n = sum counts <= total_size_at(1/T)). The degraded
  // answer itself certifies total_size_at(1/makespan) >= n, so expand
  // geometrically from there until the total drops to n, then bisect in
  // log space to tighten.
  const double nd = static_cast<double>(n);
  double c_lo = 1.0 / out.makespan;  // total >= n here
  double c_hi = c_lo;
  bool bracketed = false;
  for (int i = 0; i < kBoundExpandSteps; ++i) {
    c_hi *= 2.0;
    if (!std::isfinite(c_hi)) return std::nullopt;
    if (total_size_at(speeds, c_hi) <= nd) {
      bracketed = true;
      break;
    }
    c_lo = c_hi;
  }
  if (!bracketed) return std::nullopt;
  for (int i = 0; i < kBoundRefineSteps; ++i) {
    const double mid = std::sqrt(c_lo * c_hi);
    if (!(mid > c_lo && mid < c_hi)) break;
    if (total_size_at(speeds, mid) <= nd)
      c_hi = mid;
    else
      c_lo = mid;
  }
  // makespan >= 1/c_hi would make the bound negative only through floating
  // noise; clamp at zero (the answer cannot beat the certified optimum).
  out.error_bound = std::max(0.0, out.makespan * c_hi - 1.0);
  return out;
}

// ---------------------------------------------------------------------------
// QueueDelayEstimator
// ---------------------------------------------------------------------------

QueueDelayEstimator::QueueDelayEstimator(double alpha) noexcept
    : alpha_(alpha > 0.0 && alpha <= 1.0 ? alpha : kDefaultAlpha) {}

double QueueDelayEstimator::read(const Cell& cell) noexcept {
  return cell.count.load(std::memory_order_relaxed) > 0
             ? cell.ewma.load(std::memory_order_relaxed)
             : -1.0;
}

void QueueDelayEstimator::update(Cell& cell, double service_s) noexcept {
  const std::int64_t seen = cell.count.load(std::memory_order_relaxed);
  const double old = cell.ewma.load(std::memory_order_relaxed);
  const double next =
      seen == 0 ? service_s : alpha_ * service_s + (1.0 - alpha_) * old;
  cell.ewma.store(next, std::memory_order_relaxed);
  cell.count.store(seen + 1, std::memory_order_relaxed);
}

void QueueDelayEstimator::record(Priority priority, double service_s) noexcept {
  if (!(service_s >= 0.0) || !std::isfinite(service_s)) return;
  update(per_class_[static_cast<std::size_t>(priority)], service_s);
  update(all_, service_s);
}

void QueueDelayEstimator::decay(Priority priority) noexcept {
  Cell& mine = per_class_[static_cast<std::size_t>(priority)];
  Cell& cell = mine.count.load(std::memory_order_relaxed) > 0 ? mine : all_;
  cell.ewma.store((1.0 - alpha_) * cell.ewma.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
}

double QueueDelayEstimator::service_estimate(
    Priority priority) const noexcept {
  const double mine = read(per_class_[static_cast<std::size_t>(priority)]);
  if (mine >= 0.0) return mine;
  const double any = read(all_);
  return any >= 0.0 ? any : 0.0;
}

double QueueDelayEstimator::queue_delay(Priority priority,
                                        std::size_t jobs_ahead,
                                        unsigned workers) const noexcept {
  return service_estimate(priority) * static_cast<double>(jobs_ahead) /
         static_cast<double>(std::max(1u, workers));
}

std::int64_t QueueDelayEstimator::samples(Priority priority) const noexcept {
  return per_class_[static_cast<std::size_t>(priority)].count.load(
      std::memory_order_relaxed);
}

}  // namespace fpm::core
