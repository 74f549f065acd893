// Unit and property tests for the fine-tuning layer: the greedy completion,
// the from-zero greedy, and the exact-optimum oracle itself (cross-checked
// against brute force on small instances).
#include <gtest/gtest.h>

#include <functional>

#include "core/finetune.hpp"
#include "helpers.hpp"

namespace fpm::core {
namespace {

/// Brute-force optimal makespan over all allocations of n elements to p
/// processors (exponential; only for tiny instances).
double brute_force_makespan(const SpeedList& speeds, std::int64_t n) {
  const std::size_t p = speeds.size();
  double best = std::numeric_limits<double>::infinity();
  std::vector<std::int64_t> counts(p, 0);
  std::function<void(std::size_t, std::int64_t)> rec = [&](std::size_t i,
                                                           std::int64_t left) {
    if (i + 1 == p) {
      counts[i] = left;
      Distribution d{counts};
      best = std::min(best, makespan(speeds, d));
      return;
    }
    for (std::int64_t c = 0; c <= left; ++c) {
      counts[i] = c;
      rec(i + 1, left - c);
    }
  };
  rec(0, n);
  return best;
}

TEST(ExactOptimum, MatchesBruteForceOnTinyInstances) {
  for (const auto& e : fpm::test::all_ensembles(3)) {
    const SpeedList speeds = e.list();
    for (const std::int64_t n : {1L, 2L, 5L, 9L, 14L}) {
      const Distribution d = exact_optimum(speeds, n);
      EXPECT_EQ(d.total(), n) << e.name;
      EXPECT_NEAR(makespan(speeds, d), brute_force_makespan(speeds, n),
                  1e-9 * std::max(1.0, makespan(speeds, d)))
          << e.name << " n=" << n;
    }
  }
}

TEST(ExactOptimum, HandlesZeroAndRejectsEmpty) {
  const auto e = fpm::test::linear_ensemble(3);
  EXPECT_EQ(exact_optimum(e.list(), 0).total(), 0);
  EXPECT_THROW(exact_optimum({}, 5), std::invalid_argument);
}

TEST(GreedyFromZero, MatchesExactOptimumMakespan) {
  for (const auto& e : fpm::test::all_ensembles(4)) {
    const SpeedList speeds = e.list();
    for (const std::int64_t n : {1L, 7L, 100L, 4096L}) {
      const Distribution g = greedy_from_zero(speeds, n);
      const Distribution x = exact_optimum(speeds, n);
      EXPECT_EQ(g.total(), n);
      EXPECT_NEAR(makespan(speeds, g), makespan(speeds, x),
                  1e-9 * std::max(1e-30, makespan(speeds, x)))
          << e.name << " n=" << n;
    }
  }
}

TEST(FineTune, CompletesFloorAllocationToExactSum) {
  const auto e = fpm::test::power_ensemble(4);
  const SpeedList speeds = e.list();
  // A deliberately crude fractional seed (the real callers pass the steep
  // bracket line's intersections).
  const std::vector<double> seed{100.25, 250.75, 324.5, 99.99};
  const std::int64_t n = 900;
  const Distribution d = fine_tune(speeds, n, seed);
  EXPECT_EQ(d.total(), n);
  for (std::size_t i = 0; i < seed.size(); ++i)
    EXPECT_GE(d.counts[i], static_cast<std::int64_t>(seed[i]) - 1);
}

TEST(FineTune, ShedsExcessWhenSeedOverfills) {
  const auto e = fpm::test::constant_ensemble(3);
  const std::vector<double> seed{50.0, 50.0, 50.0};
  const Distribution d = fine_tune(e.list(), 100, seed);
  EXPECT_EQ(d.total(), 100);
  for (const auto c : d.counts) EXPECT_GE(c, 0);
}

TEST(FineTune, NegativeSeedEntriesClampToZero) {
  const auto e = fpm::test::constant_ensemble(2);
  const std::vector<double> seed{-3.0, 0.5};
  const Distribution d = fine_tune(e.list(), 10, seed);
  EXPECT_EQ(d.total(), 10);
  for (const auto c : d.counts) EXPECT_GE(c, 0);
}

TEST(FineTune, RejectsSizeMismatch) {
  const auto e = fpm::test::constant_ensemble(2);
  EXPECT_THROW(fine_tune(e.list(), 10, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(FineTune, RejectsNegativeN) {
  // A negative n would ask the shed phase to remove more elements than the
  // seed holds.
  const auto e = fpm::test::constant_ensemble(2);
  const SpeedList speeds = e.list();
  const std::vector<double> seed{0.0, 0.0};
  EXPECT_THROW(fine_tune(speeds, -3, seed), std::invalid_argument);
  const CompiledSpeedList compiled = CompiledSpeedList::compile(speeds);
  EXPECT_THROW(fine_tune(compiled, -3, seed, nullptr), std::invalid_argument);
}

TEST(FineTune, GreedyCompletionIsOptimalFromConsistentSeed) {
  // Property (DESIGN.md §5): starting from the floors of a line with sum
  // <= n, the greedy completion reaches the global optimal makespan.
  for (const auto& e : fpm::test::all_ensembles(5)) {
    const SpeedList speeds = e.list();
    const std::int64_t n = 100003;
    const SlopeBracket br = detect_bracket(speeds, n);
    const std::vector<double> small = sizes_at(speeds, br.hi_slope);
    const Distribution tuned = fine_tune(speeds, n, small);
    const Distribution best = exact_optimum(speeds, n);
    EXPECT_EQ(tuned.total(), n) << e.name;
    // Allow the one-element slack of integer granularity.
    double slack = 0.0;
    for (std::size_t i = 0; i < speeds.size(); ++i) {
      const double x = static_cast<double>(best.counts[i]);
      slack = std::max(slack, speeds[i]->time(x + 1.0) - speeds[i]->time(x));
    }
    EXPECT_LE(makespan(speeds, tuned), makespan(speeds, best) + slack)
        << e.name;
  }
}

TEST(ExactOptimum, NeverWorseThanProportionalHeuristics) {
  const auto e = fpm::test::mixed_ensemble();
  const SpeedList speeds = e.list();
  const std::int64_t n = 250000;
  const double t_opt = makespan(speeds, exact_optimum(speeds, n));
  const double t_even = makespan(speeds, partition_even(n, speeds.size()));
  const Distribution prop = partition_single_number_at(speeds, n, 1000.0);
  EXPECT_LE(t_opt, makespan(speeds, prop) * (1.0 + 1e-12));
  EXPECT_LE(t_opt, t_even * (1.0 + 1e-12));
}

}  // namespace
}  // namespace fpm::core
