// The unified partitioner engine: registry contents, policy dispatch
// bit-identity against the direct entry points, the parse/format grammar,
// and the shared search instrumentation (per-call counters + step traces).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fpm.hpp"
#include "helpers.hpp"

namespace fpm::core {
namespace {

using fpm::test::Ensemble;

std::vector<std::int64_t> capacity_bounds(const SpeedList& speeds) {
  std::vector<std::int64_t> bounds;
  for (const SpeedFunction* f : speeds)
    bounds.push_back(static_cast<std::int64_t>(std::ceil(f->max_size())));
  return bounds;
}

TEST(PartitionerRegistry, HoldsTheFiveFamilyMembers) {
  const std::vector<std::string> ids = partitioner_registry().ids();
  const std::vector<std::string> expected{
      kAlgorithmBasic, kAlgorithmModified, kAlgorithmCombined,
      kAlgorithmInterpolation, kAlgorithmBounded};
  EXPECT_EQ(ids, expected);
  for (const PartitionerInfo& info : partitioner_registry().entries()) {
    EXPECT_FALSE(info.summary.empty()) << info.id;
    EXPECT_FALSE(info.complexity.empty()) << info.id;
    EXPECT_EQ(info.needs_bounds, info.id == kAlgorithmBounded) << info.id;
    EXPECT_TRUE(partitioner_registry().contains(info.id));
  }
  EXPECT_FALSE(partitioner_registry().contains("simulated-annealing"));
  for (const std::string& id : ids)
    EXPECT_NE(partitioner_registry().joined_ids().find(id), std::string::npos);
}

TEST(PartitionEngine, DefaultPolicyIsExactlyCombined) {
  for (const Ensemble& e : fpm::test::all_ensembles(6)) {
    const SpeedList speeds = e.list();
    const PartitionResult direct = partition_combined(speeds, 1'000'000);
    const PartitionResult engine = partition(speeds, 1'000'000);
    EXPECT_EQ(engine.distribution.counts, direct.distribution.counts)
        << e.name;
    EXPECT_EQ(engine.stats.iterations, direct.stats.iterations) << e.name;
    EXPECT_EQ(engine.stats.intersections, direct.stats.intersections)
        << e.name;
    EXPECT_EQ(engine.stats.algorithm, kAlgorithmCombined) << e.name;
  }
}

TEST(PartitionEngine, EveryIdMatchesItsDirectEntryPoint) {
  const Ensemble e = fpm::test::mixed_ensemble();
  const SpeedList speeds = e.list();
  const std::int64_t n = 31'415'926;
  for (const PartitionerInfo& info : partitioner_registry().entries()) {
    PartitionPolicy policy;
    policy.algorithm = info.id;
    const PartitionResult engine = partition(speeds, n, policy);
    PartitionResult direct;
    if (info.id == kAlgorithmBasic)
      direct = partition_basic(speeds, n);
    else if (info.id == kAlgorithmModified)
      direct = partition_modified(speeds, n);
    else if (info.id == kAlgorithmCombined)
      direct = partition_combined(speeds, n);
    else if (info.id == kAlgorithmInterpolation)
      direct = partition_interpolation(speeds, n);
    else
      direct = partition_bounded(speeds, n, capacity_bounds(speeds));
    EXPECT_EQ(engine.distribution.counts, direct.distribution.counts)
        << info.id;
    EXPECT_EQ(engine.stats.iterations, direct.stats.iterations) << info.id;
    EXPECT_EQ(engine.stats.algorithm, info.id) << info.id;
  }
}

TEST(PartitionEngine, OptionsVariantIsHonoured) {
  const Ensemble e = fpm::test::power_ensemble(5);
  CombinedOptions tuned;
  tuned.stall_window = 2;
  PartitionPolicy policy;
  policy.options = tuned;
  const PartitionResult engine = partition(e.list(), 10'000'019, policy);
  const PartitionResult direct = partition_combined(e.list(), 10'000'019,
                                                    tuned);
  EXPECT_EQ(engine.distribution.counts, direct.distribution.counts);
  EXPECT_EQ(engine.stats.iterations, direct.stats.iterations);
}

TEST(PartitionEngine, UnknownIdNamesTheValidOnes) {
  const Ensemble e = fpm::test::power_ensemble(3);
  PartitionPolicy policy;
  policy.algorithm = "annealing";
  try {
    partition(e.list(), 1000, policy);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("annealing"), std::string::npos);
    for (const std::string& id : partitioner_registry().ids())
      EXPECT_NE(what.find(id), std::string::npos) << what;
  }
}

TEST(PartitionEngine, MismatchedOptionsVariantThrows) {
  const Ensemble e = fpm::test::power_ensemble(3);
  PartitionPolicy policy;
  policy.algorithm = kAlgorithmBasic;
  policy.options = CombinedOptions{};
  EXPECT_THROW(partition(e.list(), 1000, policy), std::invalid_argument);
}

TEST(PartitionEngine, BoundedDerivesBoundsFromCurveCapacity) {
  // Exponential curves have max_size 2e6 each: 6 of them hold 1.2e7.
  const Ensemble e = fpm::test::exponential_ensemble(6);
  PartitionPolicy policy;
  policy.algorithm = kAlgorithmBounded;
  const std::int64_t feasible = 6'000'000;
  const PartitionResult engine = partition(e.list(), feasible, policy);
  const PartitionResult direct =
      partition_bounded(e.list(), feasible, capacity_bounds(e.list()));
  EXPECT_EQ(engine.distribution.counts, direct.distribution.counts);
  for (std::size_t i = 0; i < e.owned.size(); ++i)
    EXPECT_LE(engine.distribution.counts[i],
              static_cast<std::int64_t>(std::ceil(e.list()[i]->max_size())));
  // More than the curves can hold is infeasible, like the direct call.
  EXPECT_THROW(partition(e.list(), 13'000'000, policy), std::invalid_argument);
  // Explicit bounds override the derived ones.
  policy.bounds.assign(6, 2'000'000);
  policy.bounds[0] = 0;
  const PartitionResult clamped = partition(e.list(), feasible, policy);
  EXPECT_EQ(clamped.distribution.counts[0], 0);
  EXPECT_EQ(clamped.distribution.total(), feasible);
}

// ---------------------------------------------------------------------------
// Shared instrumentation: counters and the step trace.
// ---------------------------------------------------------------------------

TEST(SearchInstrumentation, CountersAreAliveForEveryAlgorithm) {
  const Ensemble e = fpm::test::mixed_ensemble();
  for (const PartitionerInfo& info : partitioner_registry().entries()) {
    PartitionPolicy policy;
    policy.algorithm = info.id;
    const PartitionResult r = partition(e.list(), 31'415'926, policy);
    EXPECT_GT(r.stats.speed_evals, 0) << info.id;
    EXPECT_GT(r.stats.intersect_solves, 0) << info.id;
  }
}

TEST(SearchInstrumentation, TraceStepCountMatchesIterationStats) {
  const Ensemble e = fpm::test::mixed_ensemble();
  for (const PartitionerInfo& info : partitioner_registry().entries()) {
    StepTrace trace;
    PartitionPolicy policy;
    policy.algorithm = info.id;
    policy.observer = trace.observer();
    const PartitionResult r = partition(e.list(), 31'415'926, policy);
    EXPECT_EQ(trace.search_steps(), r.stats.iterations) << info.id;
    EXPECT_GE(trace.brackets(), 1) << info.id;
    EXPECT_FALSE(trace.truncated()) << info.id;
    // Iterations are numbered 1..k within each line search; the bracket
    // record of each search carries iteration 0.
    int last = -1;
    for (const SearchStep& s : trace.steps()) {
      if (s.kind == SearchStepKind::Bracket) {
        EXPECT_EQ(s.iteration, 0) << info.id;
        last = 0;
      } else {
        EXPECT_EQ(s.iteration, last + 1) << info.id;
        last = s.iteration;
        EXPECT_LE(s.lo_slope, s.hi_slope) << info.id;
      }
    }
  }
}

TEST(SearchInstrumentation, ObserverDoesNotChangeTheDistribution) {
  for (const Ensemble& e : fpm::test::all_ensembles(5)) {
    StepTrace trace;
    PartitionPolicy observed;
    observed.observer = trace.observer();
    const PartitionResult with = partition(e.list(), 2'000'003, observed);
    const PartitionResult without = partition(e.list(), 2'000'003);
    EXPECT_EQ(with.distribution.counts, without.distribution.counts) << e.name;
    EXPECT_EQ(with.stats.iterations, without.stats.iterations) << e.name;
    EXPECT_EQ(with.stats.speed_evals, without.stats.speed_evals) << e.name;
    EXPECT_EQ(with.stats.intersect_solves, without.stats.intersect_solves)
        << e.name;
  }
}

TEST(SearchInstrumentation, TraceTruncatesButKeepsCounting) {
  const Ensemble e = fpm::test::exponential_ensemble(6);
  StepTrace trace(3);
  PartitionPolicy policy;
  policy.algorithm = kAlgorithmBasic;
  policy.observer = trace.observer();
  const PartitionResult r = partition(e.list(), 1'000'000, policy);
  ASSERT_GT(r.stats.iterations, 3);
  EXPECT_TRUE(trace.truncated());
  EXPECT_EQ(trace.steps().size(), 3u);
  EXPECT_EQ(trace.search_steps(), r.stats.iterations);
}

// ---------------------------------------------------------------------------
// The policy grammar shared by spec files and CLIs.
// ---------------------------------------------------------------------------

TEST(PolicyGrammar, ParsesKeysIntoTheMatchingOptions) {
  const std::vector<std::string> tokens{"stall_window", "7", "bisect_angles",
                                        "false"};
  const PartitionPolicy policy = parse_policy(kAlgorithmCombined, tokens);
  const auto* opts = std::get_if<CombinedOptions>(&policy.options);
  ASSERT_NE(opts, nullptr);
  EXPECT_EQ(opts->stall_window, 7);
  EXPECT_FALSE(opts->bisect_angles);
}

PartitionPolicy interpolation_with_margin(double margin) {
  InterpolationOptions opts;
  opts.safeguard_margin = margin;
  PartitionPolicy policy;
  policy.algorithm = kAlgorithmInterpolation;
  policy.options = opts;
  return policy;
}

TEST(PolicyGrammar, FormatRoundTrips) {
  const std::vector<std::string> tokens{"stall_window", "7", "bisect_angles",
                                        "false"};
  const PartitionPolicy policy = parse_policy(kAlgorithmCombined, tokens);
  const std::string text = format_policy(policy);
  EXPECT_EQ(text, "combined stall_window 7 bisect_angles false");
  // Defaults collapse to the bare id.
  EXPECT_EQ(format_policy(parse_policy(kAlgorithmModified, {})), "modified");
  EXPECT_EQ(format_policy(PartitionPolicy{}), "combined");
  // Floating-point options come back exactly, not rounded to 6 digits.
  for (const double margin : {0.1, 1.0 / 3, std::nextafter(0.25, 1.0)}) {
    const std::string margin_text =
        format_policy(interpolation_with_margin(margin));
    std::istringstream in(margin_text);
    std::string id;
    in >> id;
    std::vector<std::string> margin_tokens;
    for (std::string token; in >> token;) margin_tokens.push_back(token);
    const PartitionPolicy back = parse_policy(id, margin_tokens);
    const auto* opts = std::get_if<InterpolationOptions>(&back.options);
    ASSERT_NE(opts, nullptr) << margin_text;
    EXPECT_EQ(opts->safeguard_margin, margin) << margin_text;
    EXPECT_EQ(format_policy(back), margin_text);
  }
}

TEST(PolicyGrammar, PoliciesOneUlpApartGetDistinctCacheKeys) {
  const PartitionPolicy quarter = interpolation_with_margin(0.25);
  for (const double other : {std::nextafter(0.25, 1.0), 0.2500001}) {
    const PartitionPolicy near = interpolation_with_margin(other);
    EXPECT_NE(format_policy(quarter), format_policy(near));
    EXPECT_NE(PartitionCache::make_key(1, 100, quarter),
              PartitionCache::make_key(1, 100, near));
  }
}

TEST(PolicyGrammar, RejectsMalformedInput) {
  EXPECT_THROW(parse_policy("annealing", {}), std::invalid_argument);
  const std::vector<std::string> dangling{"stall_window"};
  EXPECT_THROW(parse_policy(kAlgorithmCombined, dangling),
               std::invalid_argument);
  const std::vector<std::string> unknown{"cooling_rate", "3"};
  EXPECT_THROW(parse_policy(kAlgorithmCombined, unknown),
               std::invalid_argument);
  const std::vector<std::string> bad_value{"stall_window", "many"};
  EXPECT_THROW(parse_policy(kAlgorithmCombined, bad_value),
               std::invalid_argument);
  const std::vector<std::string> trailing_junk{"max_iterations", "3x"};
  EXPECT_THROW(parse_policy(kAlgorithmModified, trailing_junk),
               std::invalid_argument);
}

TEST(PolicyGrammar, BoundedKeysTuneTheInnerSolve) {
  const std::vector<std::string> tokens{"stall_window", "9"};
  const PartitionPolicy policy = parse_policy(kAlgorithmBounded, tokens);
  const auto* opts = std::get_if<BoundedOptions>(&policy.options);
  ASSERT_NE(opts, nullptr);
  EXPECT_EQ(opts->inner.stall_window, 9);
  EXPECT_EQ(format_policy(policy), "bounded stall_window 9");
}

// ---------------------------------------------------------------------------
// Consumers dispatch through the engine.
// ---------------------------------------------------------------------------

TEST(PolicyConsumers, HierarchicalRejectsPerProcessorBounds) {
  std::vector<SpeedList> groups;
  const Ensemble e = fpm::test::power_ensemble(4);
  const SpeedList flat = e.list();
  groups.push_back({flat[0], flat[1]});
  groups.push_back({flat[2], flat[3]});
  PartitionPolicy policy;
  policy.bounds = {1, 2, 3, 4};
  EXPECT_THROW(partition_hierarchical(groups, 1000, policy),
               std::invalid_argument);
}

TEST(PolicyConsumers, HierarchicalHonoursTheAlgorithmChoice) {
  std::vector<SpeedList> groups;
  const Ensemble e = fpm::test::power_ensemble(4);
  const SpeedList flat = e.list();
  groups.push_back({flat[0], flat[1]});
  groups.push_back({flat[2], flat[3]});
  PartitionPolicy policy;
  policy.algorithm = kAlgorithmModified;
  const HierarchicalResult r = partition_hierarchical(groups, 100'003, policy);
  EXPECT_EQ(r.stats.algorithm, kAlgorithmHierarchical);
  std::int64_t total = 0;
  for (const std::int64_t c : r.flatten()) total += c;
  EXPECT_EQ(total, 100'003);
}

}  // namespace
}  // namespace fpm::core
