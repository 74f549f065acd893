#include "verify.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace fpmbench {

namespace {

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Violation check_sum(const fpm::core::SpeedList& speeds, std::int64_t n,
                    const fpm::core::Distribution& answer) {
  if (answer.counts.size() != speeds.size())
    return "answer has " + std::to_string(answer.counts.size()) +
           " counts for " + std::to_string(speeds.size()) + " processors";
  std::int64_t sum = 0;
  for (const std::int64_t x : answer.counts) {
    if (x < 0) return "negative count " + std::to_string(x);
    sum += x;
  }
  if (sum != n)
    return "counts sum to " + std::to_string(sum) + ", not n=" +
           std::to_string(n);
  return {};
}

}  // namespace

Violation check_full(const fpm::core::SpeedList& speeds, std::int64_t n,
                     const fpm::core::Distribution& answer) {
  if (Violation v = check_sum(speeds, n, answer); !v.empty()) return v;
  double makespan = 0.0;
  double next_best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    const std::int64_t x = answer.counts[i];
    makespan = std::max(makespan, speeds[i]->time(static_cast<double>(x)));
    next_best =
        std::min(next_best, speeds[i]->time(static_cast<double>(x + 1)));
  }
  if (!(makespan <= next_best))
    return "exchange certificate fails: makespan " +
           exact(makespan) + " > best next-element time " +
           exact(next_best);
  return {};
}

Violation check_degraded(const fpm::core::SpeedList& speeds, std::int64_t n,
                         const fpm::core::Distribution& answer,
                         double error_bound) {
  if (Violation v = check_sum(speeds, n, answer); !v.empty()) return v;
  if (!std::isfinite(error_bound) || error_bound < 0.0)
    return "degraded error bound " + exact(error_bound) +
           " is not finite and >= 0";
  return {};
}

}  // namespace fpmbench
