// Warm-started partitioning: a PartitionHint must never change the answer —
// only the search cost. Covers bit-identity for every registry algorithm
// across drifting n, perturbed models, and deliberately wrong hints; the
// hit/stale classification and its metrics; the cost advantage of a good
// hint; the server's per-fingerprint hint store; and the batched SoA
// sweep against per-entry intersects on every line a search draws.
//
// The constant ensemble is deliberately absent from the hint sweeps: with
// piecewise-constant speeds the optimum can land exactly on an integer, and
// two *valid* converged brackets may then legitimately disagree about the
// boundary element. Every other family has strictly varying curves.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "core/fpm.hpp"
#include "core/server.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"

namespace fpm::core {
namespace {

using fpm::test::Ensemble;

/// Hint-sweep families: every non-constant ensemble plus the mixed one.
std::vector<Ensemble> hint_ensembles(std::size_t p) {
  std::vector<Ensemble> out;
  for (Ensemble& e : fpm::test::all_ensembles(p))
    if (e.name != "constant") out.push_back(std::move(e));
  out.push_back(fpm::test::mixed_ensemble());
  return out;
}

PartitionHint hint_from(const PartitionResult& result, std::int64_t n,
                        std::uint64_t fingerprint) {
  PartitionHint hint;
  hint.slope = result.stats.final_slope;
  hint.n = n;
  hint.fingerprint = fingerprint;
  hint.baseline_iterations = result.stats.iterations;
  hint.counts = result.distribution.counts;
  return hint;
}

TEST(WarmStart, BitIdenticalAcrossRegistryOnDriftingN) {
  constexpr std::int64_t kBase = 1'000'003;
  const std::vector<std::int64_t> drifts{-250'000, -37, -1, 0,
                                         1,        23,  4'001, 250'000};
  for (const Ensemble& e : hint_ensembles(6)) {
    const SpeedList speeds = e.list();
    const std::uint64_t fp = CompiledSpeedList::fingerprint_of(speeds);
    for (const std::string& id : partitioner_registry().ids()) {
      PartitionPolicy cold_policy;
      cold_policy.algorithm = id;
      const PartitionResult seed = partition(speeds, kBase, cold_policy);
      const PartitionHint hint = hint_from(seed, kBase, fp);
      for (const std::int64_t drift : drifts) {
        const std::int64_t n = kBase + drift;
        const PartitionResult cold = partition(speeds, n, cold_policy);
        PartitionPolicy warm_policy = cold_policy;
        warm_policy.hint = hint;
        const PartitionResult warm = partition(speeds, n, warm_policy);
        EXPECT_EQ(warm.distribution.counts, cold.distribution.counts)
            << e.name << " " << id << " n=" << n;
      }
    }
  }
}

TEST(WarmStart, BitIdenticalWhenModelsDriftUnderTheHint) {
  // A hint learned on one model set applied to a slightly different one —
  // the rebalancer's situation every round (fingerprint 0: no staleness
  // check, the verified bracket alone decides).
  constexpr std::int64_t kN = 600'000;
  const Ensemble before = fpm::test::linear_ensemble(6, 4.0e8);
  const Ensemble after = fpm::test::linear_ensemble(6, 4.3e8);
  const SpeedList drifted = after.list();
  for (const std::string& id : partitioner_registry().ids()) {
    PartitionPolicy cold_policy;
    cold_policy.algorithm = id;
    const PartitionResult seed = partition(before.list(), kN, cold_policy);
    const PartitionResult cold = partition(drifted, kN, cold_policy);
    PartitionPolicy warm_policy = cold_policy;
    warm_policy.hint = hint_from(seed, kN, 0);
    const PartitionResult warm = partition(drifted, kN, warm_policy);
    EXPECT_EQ(warm.distribution.counts, cold.distribution.counts) << id;
  }
}

TEST(WarmStart, WrongHintsNeverChangeTheAnswer) {
  constexpr std::int64_t kN = 750'011;
  const Ensemble e = fpm::test::mixed_ensemble();
  const SpeedList speeds = e.list();
  const std::uint64_t fp = CompiledSpeedList::fingerprint_of(speeds);
  struct Case {
    const char* label;
    double slope;
    std::uint64_t fingerprint;
    WarmStart expected;
  };
  const std::vector<Case> cases{
      {"absurdly-high", 1e300, fp, WarmStart::Stale},
      {"absurdly-low", 1e-300, fp, WarmStart::Stale},
      {"wrong-fingerprint", 0.0 /* filled below */, fp ^ 0xdeadbeefULL,
       WarmStart::Stale},
      {"nan", std::numeric_limits<double>::quiet_NaN(), fp, WarmStart::None},
      {"infinite", std::numeric_limits<double>::infinity(), fp,
       WarmStart::None},
      {"negative", -3.5, fp, WarmStart::None},
      {"zero", 0.0, fp, WarmStart::None},
  };
  for (const std::string& id : partitioner_registry().ids()) {
    PartitionPolicy cold_policy;
    cold_policy.algorithm = id;
    const PartitionResult cold = partition(speeds, kN, cold_policy);
    for (const Case& c : cases) {
      PartitionHint hint;
      hint.slope = c.slope;
      if (std::string(c.label) == "wrong-fingerprint")
        hint.slope = cold.stats.final_slope;  // right slope, wrong models
      hint.n = kN;
      hint.fingerprint = c.fingerprint;
      PartitionPolicy warm_policy = cold_policy;
      warm_policy.hint = hint;
      const PartitionResult warm = partition(speeds, kN, warm_policy);
      EXPECT_EQ(warm.distribution.counts, cold.distribution.counts)
          << id << " " << c.label;
      EXPECT_EQ(warm.stats.warmstart, c.expected) << id << " " << c.label;
    }
  }
}

TEST(WarmStart, GoodHintHitsAndCostsNoMoreEvals) {
  constexpr std::int64_t kN = 900'007;
  for (const Ensemble& e : hint_ensembles(6)) {
    const SpeedList speeds = e.list();
    const std::uint64_t fp = CompiledSpeedList::fingerprint_of(speeds);
    for (const std::string& id : partitioner_registry().ids()) {
      if (id == kAlgorithmBounded) continue;  // final_slope is the residual
                                              // round's, not the problem's
      PartitionPolicy cold_policy;
      cold_policy.algorithm = id;
      const PartitionResult cold = partition(speeds, kN, cold_policy);
      PartitionPolicy warm_policy = cold_policy;
      warm_policy.hint = hint_from(cold, kN, fp);
      const PartitionResult warm = partition(speeds, kN, warm_policy);
      EXPECT_EQ(warm.distribution.counts, cold.distribution.counts)
          << e.name << " " << id;
      EXPECT_EQ(warm.stats.warmstart, WarmStart::Hit) << e.name << " " << id;
      EXPECT_LE(warm.stats.speed_evals, cold.stats.speed_evals)
          << e.name << " " << id;
      EXPECT_LE(warm.stats.iterations, cold.stats.iterations)
          << e.name << " " << id;
      EXPECT_EQ(warm.stats.iterations_saved,
                cold.stats.iterations - warm.stats.iterations)
          << e.name << " " << id;
    }
  }
}

TEST(WarmStart, MetricsClassifyHitsAndStaleness) {
  constexpr std::int64_t kN = 512'009;
  const Ensemble e = fpm::test::power_ensemble(5);
  const SpeedList speeds = e.list();
  const std::uint64_t fp = CompiledSpeedList::fingerprint_of(speeds);
  auto& hits = obs::metrics().counter(obs::names::kPartitionWarmstartHits);
  auto& stale = obs::metrics().counter(obs::names::kPartitionWarmstartStale);
  auto& saved =
      obs::metrics().counter(obs::names::kPartitionWarmstartIterationsSaved);

  const PartitionResult cold = partition(speeds, kN);
  PartitionPolicy good;
  good.hint = hint_from(cold, kN, fp);
  const std::int64_t hits0 = hits.value();
  const std::int64_t stale0 = stale.value();
  const std::int64_t saved0 = saved.value();
  const PartitionResult warm = partition(speeds, kN + 17, good);
  EXPECT_EQ(warm.stats.warmstart, WarmStart::Hit);
  EXPECT_EQ(hits.value(), hits0 + 1);
  EXPECT_EQ(stale.value(), stale0);
  EXPECT_EQ(saved.value(), saved0 + warm.stats.iterations_saved);

  PartitionPolicy bad = good;
  bad.hint->fingerprint = fp ^ 1;
  const PartitionResult stale_run = partition(speeds, kN + 17, bad);
  EXPECT_EQ(stale_run.stats.warmstart, WarmStart::Stale);
  EXPECT_EQ(stale.value(), stale0 + 1);
  EXPECT_EQ(hits.value(), hits0 + 1);
  EXPECT_EQ(stale_run.distribution.counts, warm.distribution.counts);
}

TEST(WarmStart, ServerWarmStartsNearMissTraffic) {
  constexpr std::int64_t kBase = 820'001;
  const Ensemble e = fpm::test::power_ensemble(6);
  const SpeedList speeds = e.list();
  auto& hits = obs::metrics().counter(obs::names::kPartitionWarmstartHits);

  ServerOptions opts;
  opts.threads = 1;
  PartitionServer server(opts);
  ASSERT_EQ(server.serve(speeds, kBase).distribution.counts,
            partition(speeds, kBase).distribution.counts);
  const std::int64_t hits0 = hits.value();
  for (std::int64_t drift : {3, 7, 19, 101}) {
    const std::int64_t n = kBase + drift;
    const PartitionResult served = server.serve(speeds, n);
    EXPECT_EQ(served.distribution.counts,
              partition(speeds, n).distribution.counts)
        << n;
    EXPECT_EQ(served.stats.warmstart, WarmStart::Hit) << n;
  }
  EXPECT_EQ(hits.value(), hits0 + 4);

  // Repeats of an already-served n are cache hits: no new solve, no new
  // warm-start classification.
  const std::int64_t hits_after = hits.value();
  server.serve(speeds, kBase + 3);
  EXPECT_EQ(hits.value(), hits_after);

  // With warm-starting off the server still answers identically, cold.
  ServerOptions off = opts;
  off.warm_start = false;
  PartitionServer cold_server(off);
  cold_server.serve(speeds, kBase);
  const PartitionResult cold_served = cold_server.serve(speeds, kBase + 19);
  EXPECT_EQ(cold_served.stats.warmstart, WarmStart::None);
  EXPECT_EQ(cold_served.distribution.counts,
            partition(speeds, kBase + 19).distribution.counts);
}

TEST(WarmStart, CallerSuppliedHintWinsOverTheServerStore) {
  const Ensemble e = fpm::test::linear_ensemble(4);
  const SpeedList speeds = e.list();
  PartitionServer server(ServerOptions{.threads = 1});
  const PartitionResult seed = server.serve(speeds, 300'000);
  PartitionPolicy policy;
  policy.hint = hint_from(seed, 300'000,
                          CompiledSpeedList::fingerprint_of(speeds));
  const PartitionResult served = server.serve(speeds, 300'021, policy);
  EXPECT_EQ(served.stats.warmstart, WarmStart::Hit);
  EXPECT_EQ(served.distribution.counts,
            partition(speeds, 300'021).distribution.counts);
}

TEST(WarmStart, BatchedSweepsMatchPerEntryIntersectsOnEverySearchLine) {
  constexpr std::int64_t kN = 1'000'003;
  // Scalar batch mode: the SIMD lanes are only ULP-equivalent (the
  // equivalence gate lives in tests/test_simd.cpp); this test pins the
  // batched-vs-per-entry bit-identity contract of the scalar kernels on
  // every line each registry algorithm evaluates.
  SolveContext scalar = SolveContext::for_backend("off");
  std::vector<Ensemble> ensembles = fpm::test::all_ensembles(6);
  ensembles.push_back(fpm::test::mixed_ensemble());
  for (const Ensemble& e : ensembles) {
    const SpeedList speeds = e.list();
    const CompiledSpeedList compiled = CompiledSpeedList::compile(speeds);
    for (const std::string& id : partitioner_registry().ids()) {
      SCOPED_TRACE(e.name + " " + id);
      std::vector<double> slopes;
      PartitionPolicy policy;
      policy.algorithm = id;
      policy.observer = [&slopes](const SearchStep& s) {
        if (s.kind == SearchStepKind::Bracket) {
          slopes.push_back(s.lo_slope);
          slopes.push_back(s.hi_slope);
        } else if (s.kind != SearchStepKind::Degenerate) {
          slopes.push_back(s.slope);
        }
      };
      (void)partition(compiled, kN, policy, scalar);
      ASSERT_GT(slopes.size(), 2u);
      for (const double slope : slopes) {
        std::vector<double> per_entry(compiled.size());
        double total = 0.0;
        for (std::size_t i = 0; i < compiled.size(); ++i) {
          per_entry[i] = compiled.intersect(i, slope, &scalar);
          total += per_entry[i];
        }
        EXPECT_EQ(sizes_at(compiled, slope, &scalar), per_entry) << slope;
        EXPECT_EQ(total_size_at(compiled, slope, &scalar), total) << slope;
      }
    }
  }
}

TEST(WarmStart, BatchPlanCoversClosedFormFamilies) {
  // Unwrapped constant/linear/power/exp entries ride the SoA lanes, and the
  // mixed ensemble's well-behaved unimodal and stepped members now ride the
  // vector bisection lanes too — the whole ensemble is batched.
  const Ensemble closed = fpm::test::power_ensemble(5);
  const CompiledSpeedList compiled_closed =
      CompiledSpeedList::compile(closed.list());
  EXPECT_EQ(compiled_closed.batched_entries(), 5u);

  const Ensemble mixed = fpm::test::mixed_ensemble();
  const CompiledSpeedList compiled_mixed =
      CompiledSpeedList::compile(mixed.list());
  EXPECT_EQ(compiled_mixed.batched_entries(), 5u);
}

}  // namespace
}  // namespace fpm::core
