#include "core/finetune.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace fpm::core {
namespace {

double time_at(const SpeedFunction& f, std::int64_t x) {
  return f.time(static_cast<double>(x));
}

/// Completion times over a SpeedList, one virtual call each.
struct ListTimes {
  const SpeedList& speeds;

  std::size_t size() const noexcept { return speeds.size(); }
  double time(std::size_t i, std::int64_t x) const {
    return time_at(*speeds[i], x);
  }
  /// time(i, counts[i] + 1) for every i: the award heap's seed.
  std::vector<double> award_times(const Distribution& d) const {
    std::vector<double> ts(speeds.size());
    for (std::size_t i = 0; i < speeds.size(); ++i)
      ts[i] = time(i, d.counts[i] + 1);
    return ts;
  }
};

/// Completion times over a compiled model, each counted as one speed
/// evaluation at the SpeedFunction boundary (x >= 1 here, so the time()
/// zero-guard never fires). The award seed is one batched speeds_at sweep
/// (vectorized for the power/exp lanes); with the scalar kernels it is
/// bit-identical to ListTimes.
struct CompiledTimes {
  const CompiledSpeedList& speeds;
  SolveContext* ctx;

  std::size_t size() const noexcept { return speeds.size(); }
  double time(std::size_t i, std::int64_t x) const {
    if (ctx) ++ctx->counters.speed_evals;
    const double xd = static_cast<double>(x);
    return xd / speeds.speed(i, xd);
  }
  std::vector<double> award_times(const Distribution& d) const {
    std::vector<double> xs(speeds.size());
    for (std::size_t i = 0; i < speeds.size(); ++i)
      xs[i] = static_cast<double>(d.counts[i] + 1);
    std::vector<double> ts = speeds_at(speeds, xs, ctx);
    for (std::size_t i = 0; i < ts.size(); ++i) ts[i] = xs[i] / ts[i];
    return ts;
  }
};

/// Awards `deficit` single elements, each to the processor whose
/// post-award completion time is smallest.
template <typename Times>
void award_greedily(const Times& times, Distribution& d,
                    std::int64_t deficit) {
  using Entry = std::pair<double, std::size_t>;  // (post-award time, index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  const std::vector<double> seed = times.award_times(d);
  for (std::size_t i = 0; i < seed.size(); ++i) heap.emplace(seed[i], i);
  for (; deficit > 0; --deficit) {
    const auto [t, i] = heap.top();
    heap.pop();
    ++d.counts[i];
    heap.emplace(times.time(i, d.counts[i] + 1), i);
  }
}

/// The Figure-9 completion shared by both fine_tune overloads.
template <typename Times>
Distribution fine_tune_with(const Times& times, std::int64_t n,
                            std::span<const double> small_sizes) {
  if (times.size() != small_sizes.size())
    throw std::invalid_argument("fine_tune: size mismatch");
  if (n < 0) throw std::invalid_argument("fine_tune: n must be >= 0");
  Distribution d;
  d.counts.resize(times.size());
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    d.counts[i] = std::max<std::int64_t>(
        0, static_cast<std::int64_t>(std::floor(small_sizes[i])));
    assigned += d.counts[i];
  }
  if (assigned > n) {
    // Defensive: the steep line should under-fill, but round-off can leave
    // an excess of a few elements; shed them from the slowest finishers.
    // n >= 0 bounds the excess by the assigned total, so the heap never
    // runs dry.
    using Entry = std::pair<double, std::size_t>;
    std::priority_queue<Entry> heap;  // max by current completion time
    for (std::size_t i = 0; i < times.size(); ++i)
      if (d.counts[i] > 0) heap.emplace(times.time(i, d.counts[i]), i);
    for (std::int64_t excess = assigned - n; excess > 0; --excess) {
      assert(!heap.empty());
      const auto [t, i] = heap.top();
      heap.pop();
      --d.counts[i];
      if (d.counts[i] > 0) heap.emplace(times.time(i, d.counts[i]), i);
    }
    return d;
  }
  award_greedily(times, d, n - assigned);
  return d;
}

}  // namespace

Distribution fine_tune(const SpeedList& speeds, std::int64_t n,
                       std::span<const double> small_sizes) {
  return fine_tune_with(ListTimes{speeds}, n, small_sizes);
}

Distribution fine_tune(const CompiledSpeedList& speeds, std::int64_t n,
                       std::span<const double> small_sizes, SolveContext* ctx) {
  return fine_tune_with(CompiledTimes{speeds, ctx}, n, small_sizes);
}

Distribution greedy_from_zero(const SpeedList& speeds, std::int64_t n) {
  if (speeds.empty()) throw std::invalid_argument("greedy_from_zero: no speeds");
  Distribution d;
  d.counts.assign(speeds.size(), 0);
  award_greedily(ListTimes{speeds}, d, n);
  return d;
}

Distribution exact_optimum(const SpeedList& speeds, std::int64_t n) {
  if (speeds.empty()) throw std::invalid_argument("exact_optimum: no speeds");
  Distribution d;
  d.counts.assign(speeds.size(), 0);
  if (n <= 0) return d;

  // cap(T): the largest x in [0, n] a processor can finish within time T.
  // Well-defined because x/s(x) is non-decreasing in x.
  const auto cap = [n](const SpeedFunction& f, double T) -> std::int64_t {
    if (time_at(f, 1) > T) return 0;
    std::int64_t lo = 1;  // feasible
    std::int64_t hi = n;  // maybe infeasible
    if (time_at(f, hi) <= T) return hi;
    while (hi - lo > 1) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      if (time_at(f, mid) <= T)
        lo = mid;
      else
        hi = mid;
    }
    return lo;
  };
  const auto total_cap = [&](double T) {
    std::int64_t sum = 0;
    for (const SpeedFunction* f : speeds) sum += cap(*f, T);
    return sum;
  };

  // Feasible upper bound: the fastest single processor taking everything.
  double t_hi = std::numeric_limits<double>::infinity();
  for (const SpeedFunction* f : speeds) t_hi = std::min(t_hi, time_at(*f, n));
  double t_lo = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (t_lo + t_hi);
    if (mid <= t_lo || mid >= t_hi) break;
    if (total_cap(mid) >= n)
      t_hi = mid;
    else
      t_lo = mid;
  }

  std::int64_t sum = 0;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    d.counts[i] = cap(*speeds[i], t_hi);
    sum += d.counts[i];
  }
  assert(sum >= n);
  // Trim the overshoot from the slowest finishers; every trim keeps the
  // makespan at or below t_hi, and reducing the current maximum first keeps
  // the final makespan minimal among completions of this cap vector.
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry> heap;
  for (std::size_t i = 0; i < speeds.size(); ++i)
    if (d.counts[i] > 0) heap.emplace(time_at(*speeds[i], d.counts[i]), i);
  for (std::int64_t excess = sum - n; excess > 0; --excess) {
    const auto [t, i] = heap.top();
    heap.pop();
    --d.counts[i];
    if (d.counts[i] > 0) heap.emplace(time_at(*speeds[i], d.counts[i]), i);
  }
  return d;
}

}  // namespace fpm::core
