#include "core/partition.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "core/compiled.hpp"

namespace fpm::core {

std::int64_t Distribution::total() const noexcept {
  return std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
}

std::vector<double> sizes_at(const SpeedList& speeds, double slope) {
  std::vector<double> xs(speeds.size());
  for (std::size_t i = 0; i < speeds.size(); ++i)
    xs[i] = speeds[i]->intersect(slope);
  return xs;
}

double total_size_at(const SpeedList& speeds, double slope,
                     std::int64_t* saturations) {
  double sum = 0.0;
  for (const SpeedFunction* f : speeds) sum += f->intersect(slope, saturations);
  return sum;
}

namespace {

/// The Figure-18 bracket over p processors: `probe_speed(i, x)` returns
/// s_i(min(x, b_i)) and `total_at(c)` the total size at slope c. Both
/// detect_bracket overloads run this one body, so they count and decide
/// identically.
template <typename ProbeSpeed, typename TotalAt>
SlopeBracket figure18_bracket(std::size_t p, std::int64_t n,
                              ProbeSpeed probe_speed, TotalAt total_at) {
  if (p == 0) throw std::invalid_argument("detect_bracket: no speeds");
  if (n < 1) throw std::invalid_argument("detect_bracket: n must be >= 1");
  const double probe = static_cast<double>(n) / static_cast<double>(p);
  double s_min = std::numeric_limits<double>::infinity();
  double s_max = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    const double s = probe_speed(i, probe);
    s_min = std::min(s_min, s);
    s_max = std::max(s_max, s);
  }
  SlopeBracket br;
  br.hi_slope = s_max / probe;  // line 1 of Figure 18
  br.lo_slope = s_min / probe;  // line 2 of Figure 18
  if (br.lo_slope <= 0.0) br.lo_slope = br.hi_slope * 1e-12;
  // Figure 18's construction guarantees the bracket under the shape
  // requirement; the expansion loops below make the function total for any
  // inputs. Intersections extend beyond the modelled ranges (see
  // SpeedFunction::intersect), so the total size is unbounded as the slope
  // approaches zero and the shallow expansion always terminates.
  const double nd = static_cast<double>(n);
  for (int i = 0; i < 256 && total_at(br.hi_slope) > nd; ++i)
    br.hi_slope *= 2.0;
  for (int i = 0; i < 256 && total_at(br.lo_slope) < nd; ++i)
    br.lo_slope *= 0.5;
  if (br.lo_slope > br.hi_slope) std::swap(br.lo_slope, br.hi_slope);
  return br;
}

}  // namespace

SlopeBracket detect_bracket(const SpeedList& speeds, std::int64_t n) {
  return figure18_bracket(
      speeds.size(), n,
      [&](std::size_t i, double x) {
        return speeds[i]->speed(std::min(x, speeds[i]->max_size()));
      },
      [&](double slope) { return total_size_at(speeds, slope); });
}

SlopeBracket detect_bracket(const CompiledSpeedList& speeds, std::int64_t n,
                            SolveContext* ctx) {
  return figure18_bracket(
      speeds.size(), n,
      [&](std::size_t i, double x) {
        if (ctx) ++ctx->counters.speed_evals;
        return speeds.speed(i, std::min(x, speeds.max_size(i)));
      },
      [&](double slope) { return total_size_at(speeds, slope, ctx); });
}

Distribution partition_even(std::int64_t n, std::size_t p) {
  if (p == 0) throw std::invalid_argument("partition_even: p must be >= 1");
  Distribution d;
  d.counts.assign(p, n / static_cast<std::int64_t>(p));
  const std::int64_t rem = n % static_cast<std::int64_t>(p);
  for (std::int64_t i = 0; i < rem; ++i) ++d.counts[static_cast<std::size_t>(i)];
  return d;
}

Distribution partition_single_number(std::int64_t n,
                                     std::span<const double> speeds) {
  if (speeds.empty())
    throw std::invalid_argument("partition_single_number: no speeds");
  double total_speed = 0.0;
  for (const double s : speeds) {
    if (!(s > 0.0))
      throw std::invalid_argument(
          "partition_single_number: speeds must be positive");
    total_speed += s;
  }
  Distribution d;
  d.counts.resize(speeds.size());
  // Floor of the proportional share, then award the remaining elements one
  // at a time to the processor whose completion time after the award is
  // smallest — the standard O(p log p) heterogeneous rounding.
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    d.counts[i] = static_cast<std::int64_t>(
        std::floor(static_cast<double>(n) * speeds[i] / total_speed));
    assigned += d.counts[i];
  }
  using Entry = std::pair<double, std::size_t>;  // (post-award time, index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t i = 0; i < speeds.size(); ++i)
    heap.emplace(static_cast<double>(d.counts[i] + 1) / speeds[i], i);
  for (std::int64_t left = n - assigned; left > 0; --left) {
    const auto [t, i] = heap.top();
    heap.pop();
    ++d.counts[i];
    heap.emplace(static_cast<double>(d.counts[i] + 1) / speeds[i], i);
  }
  return d;
}

Distribution partition_single_number_at(const SpeedList& speeds,
                                        std::int64_t n,
                                        double reference_size) {
  std::vector<double> constants(speeds.size());
  for (std::size_t i = 0; i < speeds.size(); ++i)
    constants[i] = speeds[i]->speed(reference_size);
  return partition_single_number(n, constants);
}

double makespan(const SpeedList& speeds, const Distribution& d) {
  assert(speeds.size() == d.counts.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    const auto x = static_cast<double>(d.counts[i]);
    if (x <= 0.0) continue;
    worst = std::max(worst, x / speeds[i]->speed(x));
  }
  return worst;
}

std::vector<double> execution_times(const SpeedList& speeds,
                                    const Distribution& d) {
  assert(speeds.size() == d.counts.size());
  std::vector<double> ts(speeds.size(), 0.0);
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    const auto x = static_cast<double>(d.counts[i]);
    if (x > 0.0) ts[i] = x / speeds[i]->speed(x);
  }
  return ts;
}

}  // namespace fpm::core
