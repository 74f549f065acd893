// Unit tests for the internal bracketing-search layer shared by the four
// search algorithms (core/detail/search_state): bracket invariants,
// interior-candidate counting (saturating far beyond any integer size),
// convergence detection, and the semantics of one basic and one modified
// step.
#include <gtest/gtest.h>

#include "core/detail/search_state.hpp"
#include "helpers.hpp"

namespace fpm::core::detail {
namespace {

TEST(SearchState, InitialBracketStraddlesN) {
  const auto e = fpm::test::power_ensemble(4);
  const std::int64_t n = 1000000;
  const CompiledSpeedList models = CompiledSpeedList::compile(e.list());
  SearchState state(models, n);
  double small_sum = 0.0, large_sum = 0.0;
  for (const double x : state.small()) small_sum += x;
  for (const double x : state.large()) large_sum += x;
  EXPECT_LE(small_sum, static_cast<double>(n) * (1.0 + 1e-12));
  EXPECT_GE(large_sum, static_cast<double>(n) * (1.0 - 1e-12));
  EXPECT_LE(state.lo_slope(), state.hi_slope());
  EXPECT_EQ(state.intersections(), 8);  // two lines, four curves
  EXPECT_EQ(state.iterations(), 0);
}

TEST(SearchState, InteriorCountsMatchBrackets) {
  const auto e = fpm::test::linear_ensemble(3);
  const CompiledSpeedList models = CompiledSpeedList::compile(e.list());
  SearchState state(models, 100000);
  for (std::size_t i = 0; i < 3; ++i) {
    const double lo = state.small()[i];
    const double hi = state.large()[i];
    // Count integers k with lo < k <= hi by brute force.
    std::int64_t expected = 0;
    for (std::int64_t k = static_cast<std::int64_t>(lo);
         k <= static_cast<std::int64_t>(hi) + 1; ++k)
      if (static_cast<double>(k) > lo && static_cast<double>(k) <= hi)
        ++expected;
    EXPECT_EQ(state.interior_count(i), expected) << i;
  }
  std::int64_t total = 0;
  for (std::size_t i = 0; i < 3; ++i) total += state.interior_count(i);
  EXPECT_EQ(state.total_interior(), total);
}

TEST(SearchState, StepsShrinkTheBracket) {
  const auto e = fpm::test::unimodal_ensemble(4);
  const CompiledSpeedList models = CompiledSpeedList::compile(e.list());
  SearchState state(models, 500000);
  const double width0 = state.hi_slope() - state.lo_slope();
  state.step_basic(true);
  const double width1 = state.hi_slope() - state.lo_slope();
  EXPECT_LT(width1, width0);
  EXPECT_EQ(state.iterations(), 1);
  state.step_modified();
  const double width2 = state.hi_slope() - state.lo_slope();
  EXPECT_LE(width2, width1);
  EXPECT_EQ(state.iterations(), 2);
}

TEST(SearchState, StepPreservesBracketInvariant) {
  const auto e = fpm::test::stepped_ensemble(5);
  const std::int64_t n = 3000000;
  const CompiledSpeedList models = CompiledSpeedList::compile(e.list());
  SearchState state(models, n);
  for (int it = 0; it < 30 && !state.converged(); ++it) {
    if (it % 2 == 0)
      state.step_basic(false);
    else
      state.step_modified();
    double small_sum = 0.0, large_sum = 0.0;
    for (const double x : state.small()) small_sum += x;
    for (const double x : state.large()) large_sum += x;
    ASSERT_LE(small_sum, static_cast<double>(n) * (1.0 + 1e-9)) << it;
    ASSERT_GE(large_sum, static_cast<double>(n) * (1.0 - 1e-9)) << it;
    ASSERT_LE(state.lo_slope(), state.hi_slope()) << it;
  }
}

TEST(SearchState, ConvergedMeansNoInteriorIntegers) {
  const auto e = fpm::test::power_ensemble(3);
  const CompiledSpeedList models = CompiledSpeedList::compile(e.list());
  SearchState state(models, 250000);
  int guard = 0;
  while (!state.converged() && ++guard < 10000) state.step_basic(true);
  ASSERT_TRUE(state.converged());
  for (std::size_t i = 0; i < 3; ++i) {
    // No integer strictly inside (small[i], large[i]).
    const double lo = state.small()[i];
    const double hi = state.large()[i];
    for (std::int64_t k = static_cast<std::int64_t>(lo);
         k <= static_cast<std::int64_t>(hi) + 1; ++k)
      EXPECT_FALSE(static_cast<double>(k) > lo && static_cast<double>(k) < hi)
          << "integer " << k << " inside bracket of " << i;
  }
}

TEST(SearchState, ModifiedStepHalvesTheChosenGraphsCandidates) {
  const auto e = fpm::test::linear_ensemble(2);
  const CompiledSpeedList models = CompiledSpeedList::compile(e.list());
  SearchState state(models, 777777);
  // Find the graph with the most candidates, take one modified step, and
  // verify its candidate count dropped to about half.
  std::size_t target = state.interior_count(0) >= state.interior_count(1) ? 0 : 1;
  const std::int64_t before = state.interior_count(target);
  state.step_modified();
  const std::int64_t after = state.interior_count(target);
  EXPECT_LE(after, before / 2 + 1);
  EXPECT_GE(after, before / 4);  // the split is near the midpoint, not wild
}

TEST(SearchState, SingleProcessorConvergesImmediatelyOrFast) {
  const auto e = fpm::test::constant_ensemble(1);
  const CompiledSpeedList models = CompiledSpeedList::compile(e.list());
  SearchState state(models, 12345);
  int guard = 0;
  while (!state.converged() && ++guard < 100) state.step_basic(true);
  EXPECT_TRUE(state.converged());
  // The single bracket must pin x near n.
  EXPECT_NEAR(state.small()[0], 12345.0, 1.0);
}

TEST(SearchState, InteriorCountsSaturateOnLinesBeyondAnyIntegerSize) {
  // One processor a million times faster than the other: the cold
  // bracket's shallow line puts the fast one's intersection near 5e20,
  // beyond what an int64 floor can hold.
  const ConstantSpeed fast(1e12, 1e6);
  const ConstantSpeed slow(1.0, 1e6);
  const SpeedList list{&fast, &slow};
  const std::int64_t n = 1'000'000'000;
  const CompiledSpeedList models = CompiledSpeedList::compile(list);
  SearchState state(models, n);
  ASSERT_GT(state.large()[0], 0x1p63);
  for (std::size_t i = 0; i < list.size(); ++i) {
    EXPECT_GE(state.interior_count(i), 0) << i;
    EXPECT_GE(state.total_interior(), state.interior_count(i)) << i;
  }
  const PartitionResult r = partition_combined(list, n);
  EXPECT_EQ(r.distribution.total(), n);
  EXPECT_EQ(makespan(list, r.distribution),
            makespan(list, exact_optimum(list, n)));
}

}  // namespace
}  // namespace fpm::core::detail
