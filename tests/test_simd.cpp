// Equivalence and edge-case coverage for the vectorized batch-intersect
// kernels (core/detail/simd.hpp wired through CompiledSpeedList):
//
//  * the ULP-toleranced SIMD-vs-scalar gate on intersect_all, with the
//    virtual SpeedFunction path as the oracle,
//  * bit-identity guarantees that hold on every context (per-entry
//    intersect, scalar batch mode, the piecewise vector scan),
//  * speed_kernels.hpp edge cases near the punt boundaries: exp-decay's
//    1e-280 underflow floor plateau, power-decay's beyond-2^256 delegation
//    to generic_intersect (and its bracket-saturation count), piecewise
//    tail intersects across rising / flat / falling final segments,
//  * the registry-wide equivalence gate (exact sum to n, makespan within
//    fine-tune tolerance) for every algorithm with SIMD on,
//  * the O(p)-parallel intersect_all path, concurrent solves on different
//    SolveContexts, and the synthetic fleet generator's determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/detail/parallel.hpp"
#include "core/detail/simd.hpp"
#include "core/detail/speed_kernels.hpp"
#include "core/detail/search_state.hpp"
#include "core/fleetgen.hpp"
#include "core/fpm.hpp"

namespace fpm {
namespace {

using core::CompiledSpeedList;

/// The compiled-in variants this CPU can actually run.
std::vector<const core::detail::simd::SimdKernels*> runnable_variants() {
  std::vector<const core::detail::simd::SimdKernels*> out;
  for (const auto* k : core::detail::simd::compiled_simd_variants())
    if (core::detail::simd::simd_variant_supported(*k)) out.push_back(k);
  return out;
}

/// The default context (the vector kernels when the build and CPU have
/// them) and the bit-exact scalar one.
core::SolveContext simd_context() { return core::SolveContext(); }
core::SolveContext scalar_context() {
  return core::SolveContext::for_backend("off");
}

/// A context on one compiled-in variant.
core::SolveContext backend_context(const core::detail::simd::SimdKernels* k) {
  return core::SolveContext::for_backend(k->name);
}

/// The same context with its executor removed: every sweep runs serially.
core::SolveContext serial(core::SolveContext ctx) {
  ctx.executor = nullptr;
  return ctx;
}

/// core::partition of `list` on an explicit context.
core::PartitionResult partition_on(const core::SpeedList& list,
                                   std::int64_t n,
                                   const core::PartitionPolicy& policy,
                                   const core::SolveContext& ctx) {
  return core::partition(CompiledSpeedList::compile(list), n, policy, ctx);
}

constexpr double kUlpTolerance = 1e-12;  // relative, generous vs ~1e-15 seen

double rel_diff(double a, double b) {
  const double denom = std::max(std::abs(b), 1e-300);
  return std::abs(a - b) / denom;
}

/// An unknown SpeedFunction subclass: compiles to a Generic entry, so every
/// intersect goes through the generic bisection of speed_kernels.hpp.
class OpaqueConstantSpeed final : public core::SpeedFunction {
 public:
  OpaqueConstantSpeed(double s0, double max_size) : s0_(s0), max_(max_size) {}
  double speed(double) const override { return s0_; }
  double max_size() const override { return max_; }

 private:
  double s0_;
  double max_;
};

std::vector<double> sweep_slopes() {
  std::vector<double> slopes;
  for (int i = -6; i <= 6; i += 2) slopes.push_back(std::pow(10.0, i));
  return slopes;
}

TEST(Simd, IntersectAllMatchesVirtualOracleWithinTolerance) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(512, 7);
  const core::SpeedList list = fleet.list();
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> xs(list.size());
  core::SolveContext ctx = simd_context();
  for (const double slope : sweep_slopes()) {
    c.intersect_all(slope, xs, &ctx);
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_LE(rel_diff(xs[i], list[i]->intersect(slope)), kUlpTolerance)
          << "entry " << i << " slope " << slope;
    }
  }
}

TEST(Simd, ScalarToggleRestoresBitIdentity) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(256, 11);
  const core::SpeedList list = fleet.list();
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> xs(list.size());
  core::SolveContext scalar = scalar_context();
  for (const double slope : sweep_slopes()) {
    c.intersect_all(slope, xs, &scalar);
    for (std::size_t i = 0; i < list.size(); ++i)
      EXPECT_EQ(xs[i], list[i]->intersect(slope))
          << "entry " << i << " slope " << slope;
  }
}

TEST(Simd, PerEntryIntersectBitIdenticalRegardlessOfToggle) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(128, 3);
  const core::SpeedList list = fleet.list();
  const auto c = CompiledSpeedList::compile(list);
  for (const bool enabled : {true, false}) {
    core::SolveContext ctx = enabled ? simd_context() : scalar_context();
    for (const double slope : sweep_slopes())
      for (std::size_t i = 0; i < list.size(); ++i)
        EXPECT_EQ(c.intersect(i, slope, &ctx), list[i]->intersect(slope))
            << "entry " << i << " slope " << slope << " simd " << enabled;
  }
}

// --- speed_kernels.hpp edge cases, against the virtual oracle. ----------

TEST(Simd, ExpDecayUnderflowFloorPlateau) {
  // Deep in the tail the curve underflows the 1e-280 floor: the crossing
  // is the plateau point floor/slope for both paths. Several lambdas so a
  // whole batch lane runs the vector kernel.
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned;
  for (int i = 0; i < 8; ++i)
    owned.push_back(std::make_shared<core::ExpDecaySpeed>(
        100.0 + i, 1.0 + 0.125 * i, 1e6));
  core::SpeedList list;
  for (const auto& f : owned) list.push_back(f.get());
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> xs(list.size());
  // Slopes shallow enough that the root lands far beyond the floor
  // crossing (s0·e^-x/lambda < 1e-280 at the line), plus one regular one.
  for (const double slope : {1e-290, 1e-300, 0.5}) {
    core::SolveContext ctx = simd_context();
    c.intersect_all(slope, xs, &ctx);
    for (std::size_t i = 0; i < list.size(); ++i) {
      const double oracle = list[i]->intersect(slope);
      EXPECT_LE(rel_diff(xs[i], oracle), kUlpTolerance)
          << "entry " << i << " slope " << slope;
      if (slope < 1e-285) {
        // On the plateau the answer is exactly floor/slope — one IEEE
        // division in both kernels, so exact equality is expected.
        EXPECT_EQ(xs[i], oracle) << "entry " << i << " slope " << slope;
      }
    }
  }
}

TEST(Simd, PowerDecayBeyondDelegationThreshold) {
  // A slope so shallow the closed-form root exceeds max_size·2^256: the
  // scalar kernel delegates to generic_intersect; the vector kernel must
  // punt (NaN sentinel) so the same scalar delegation decides. Results are
  // therefore exactly equal, and the generic bracket saturates (root far
  // beyond max_size·2^256), which the context's counters must record.
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned;
  for (int i = 0; i < 8; ++i)
    owned.push_back(std::make_shared<core::PowerDecaySpeed>(
        100.0 + i, 10.0, 0.001 + 0.0001 * i, 1e6));
  core::SpeedList list;
  for (const auto& f : owned) list.push_back(f.get());
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> xs(list.size());
  const double slope = 1e-120;  // root ~ e^280, max_size·2^256 ~ 1e83

  core::SolveContext ctx = simd_context();
  c.intersect_all(slope, xs, &ctx);
  EXPECT_GT(ctx.counters.bracket_saturations, 0)
      << "delegated brackets should saturate";
  for (std::size_t i = 0; i < list.size(); ++i)
    EXPECT_EQ(xs[i], list[i]->intersect(slope)) << "entry " << i;
}

TEST(Simd, PiecewiseTailIntersectAcrossFinalSegmentShapes) {
  // >= 16 breakpoints engages the vectorized segment scan. Three final
  // segment shapes — rising (allowed while s/x still falls), flat, and
  // falling — exercised at slopes crossing the head, the interior, and the
  // extrapolated tail.
  const auto make = [](double last_step) {
    std::vector<core::SpeedPoint> pts;
    double x = 1e3, s = 500.0;
    for (int j = 0; j < 19; ++j) {
      pts.push_back({x, s});
      x *= 1.9;
      s *= 0.93;
    }
    pts.push_back({x, s * last_step});
    return std::make_shared<core::PiecewiseLinearSpeed>(std::move(pts));
  };
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned{
      make(1.2),  // rising final segment (x grows 1.9x, speed only 1.2x)
      make(1.0),  // flat
      make(0.6),  // falling
  };
  core::SpeedList list;
  for (const auto& f : owned) list.push_back(f.get());
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> xs(list.size());
  for (const double slope : {1.0, 1e-2, 1e-4, 1e-6, 1e-9}) {
    for (const bool enabled : {true, false}) {
      core::SolveContext ctx = enabled ? simd_context() : scalar_context();
      c.intersect_all(slope, xs, &ctx);
      for (std::size_t i = 0; i < list.size(); ++i) {
        // The vector scan picks the same segment as the binary search and
        // the segment solve is the same scalar arithmetic: bit-identical.
        EXPECT_EQ(xs[i], list[i]->intersect(slope))
            << "entry " << i << " slope " << slope << " simd " << enabled;
      }
    }
  }
}

// --- Registry-wide equivalence with SIMD on. ----------------------------

double makespan(const core::SpeedList& speeds,
                const std::vector<std::int64_t>& counts) {
  double worst = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] <= 0) continue;
    const double x = static_cast<double>(counts[i]);
    worst = std::max(worst, x / speeds[i]->speed(x));
  }
  return worst;
}

TEST(Simd, EveryRegistryAlgorithmEquivalentToScalarOracle) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(96, 5);
  const core::SpeedList list = fleet.list();
  const std::int64_t n = 40'000'000;
  for (const core::PartitionerInfo& info :
       core::partitioner_registry().entries()) {
    core::PartitionPolicy policy;
    policy.algorithm = info.id;
    const core::PartitionResult oracle =
        partition_on(list, n, policy, scalar_context());
    const core::PartitionResult simd =
        partition_on(list, n, policy, simd_context());
    EXPECT_EQ(simd.distribution.total(), n) << info.id;
    EXPECT_EQ(oracle.distribution.total(), n) << info.id;
    // Few-ULP slope differences may break integer ties differently, but
    // fine-tuning must land on an equally good makespan.
    EXPECT_LE(rel_diff(makespan(list, simd.distribution.counts),
                       makespan(list, oracle.distribution.counts)),
              1e-9)
        << info.id;
  }
}

// --- Parallel sweep path. -----------------------------------------------

TEST(Simd, ParallelSweepMatchesSerialSweep) {
  core::detail::set_lane_pool_threads(2);  // before the pool lazily starts
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(1100, 13);
  const core::SpeedList list = fleet.list();
  ASSERT_GE(list.size(), core::kParallelSweepEntries);  // chunks on the pool
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> serial_xs(list.size()), parallel_xs(list.size());
  for (const bool enabled : {true, false}) {
    core::SolveContext chunked = enabled ? simd_context() : scalar_context();
    core::SolveContext one_thread = serial(chunked);
    for (const double slope : sweep_slopes()) {
      c.intersect_all(slope, serial_xs, &one_thread);
      c.intersect_all(slope, parallel_xs, &chunked);
      // Chunks write disjoint ranges with the same kernels: the split must
      // be invisible in the output, bit for bit.
      EXPECT_EQ(serial_xs, parallel_xs)
          << "slope " << slope << " simd " << enabled;
    }
  }
}

TEST(Simd, ParallelSweepCountsEverySaturation) {
  core::detail::set_lane_pool_threads(2);
  // Generic entries whose brackets saturate at this slope: the context's
  // counters, and so PartitionStats::bracket_saturations, must count every
  // one, whether the sweep ran serially or in chunks on the pool's helpers.
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned;
  for (int i = 0; i < 1100; ++i)
    owned.push_back(std::make_shared<OpaqueConstantSpeed>(100.0 + i, 1.0));
  core::SpeedList list;
  for (const auto& f : owned) list.push_back(f.get());
  const auto c = CompiledSpeedList::compile(list);
  ASSERT_EQ(c.batched_entries(), 0u);  // all Generic -> fallback lane
  ASSERT_GE(list.size(), core::kParallelSweepEntries);
  const auto p = static_cast<std::int64_t>(list.size());
  for (const bool chunked : {false, true}) {
    SCOPED_TRACE(chunked ? "chunked" : "serial");
    const core::SolveContext ctx =
        chunked ? simd_context() : serial(simd_context());
    core::detail::SearchState state(c, 1000, ctx);
    EXPECT_EQ(state.context().counters.bracket_saturations, 0);
    // 100 >= 1e-80·(2^256) never crosses.
    (void)core::sizes_at(c, 1e-80, &state.context());
    EXPECT_EQ(state.context().counters.bracket_saturations, p);
    const core::PartitionResult r =
        state.finish(core::kAlgorithmBasic, 1000, std::nullopt);
    EXPECT_EQ(r.stats.bracket_saturations, p);
  }
}

// --- PartitionStats / SearchState plumbing. -----------------------------

TEST(Simd, SearchStateCountsSaturationsInItsContext) {
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned{
      std::make_shared<OpaqueConstantSpeed>(100.0, 1.0),
      std::make_shared<OpaqueConstantSpeed>(50.0, 1.0)};
  core::SpeedList list;
  for (const auto& f : owned) list.push_back(f.get());
  const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
  core::detail::SearchState state(compiled, 1000, simd_context());
  EXPECT_EQ(state.context().counters.bracket_saturations, 0);
  // A follow-up solve on the search's model and context (the fine-tuning
  // pattern) that saturates must be counted by the search.
  compiled.intersect(0, 1e-80, &state.context());
  EXPECT_EQ(state.context().counters.bracket_saturations, 1);
  // Without a context the solve counts nowhere.
  compiled.intersect(0, 1e-80);
  EXPECT_EQ(state.context().counters.bracket_saturations, 1);
}

TEST(Simd, PartitionStatsReportZeroSaturationsOnHealthyFleets) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(64, 9);
  const core::PartitionResult res = core::partition(fleet.list(), 1'000'000);
  EXPECT_EQ(res.stats.bracket_saturations, 0);
  EXPECT_EQ(res.distribution.total(), 1'000'000);
}

// --- Fleet generator. ---------------------------------------------------

TEST(Simd, FleetGeneratorIsDeterministicPerSeed) {
  const core::SyntheticFleet a = core::make_synthetic_fleet(333, 21);
  const core::SyntheticFleet b = core::make_synthetic_fleet(333, 21);
  const core::SyntheticFleet other = core::make_synthetic_fleet(333, 22);
  EXPECT_EQ(CompiledSpeedList::fingerprint_of(a.list()),
            CompiledSpeedList::fingerprint_of(b.list()));
  EXPECT_NE(CompiledSpeedList::fingerprint_of(a.list()),
            CompiledSpeedList::fingerprint_of(other.list()));
}

TEST(Simd, FleetGeneratorScalesToLargeP) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(4096, 1);
  ASSERT_EQ(fleet.owned.size(), 4096u);
  const auto c = CompiledSpeedList::compile(fleet.list());
  EXPECT_TRUE(c.fully_compiled());
  EXPECT_GT(c.batched_entries(), 3000u);  // closed-form families dominate
}

// --- Cross-backend equivalence. -----------------------------------------

TEST(Simd, EveryCompiledBackendMatchesScalarOracle) {
  const auto variants = runnable_variants();
  if (variants.empty()) GTEST_SKIP() << "no vector variants in this build";
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(512, 17);
  const core::SpeedList list = fleet.list();
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> xs(list.size());
  for (const auto* k : variants) {
    SCOPED_TRACE(k->name);
    core::SolveContext ctx = backend_context(k);
    for (const double slope : sweep_slopes()) {
      c.intersect_all(slope, xs, &ctx);
      for (std::size_t i = 0; i < list.size(); ++i)
        EXPECT_LE(rel_diff(xs[i], list[i]->intersect(slope)), kUlpTolerance)
            << "entry " << i << " slope " << slope;
    }
  }
}

TEST(Simd, UnimodalAndSteppedLanesMatchOracleOnEveryBackend) {
  // A fleet made purely of the new bisection lanes: 24 unimodal curves, 24
  // stepped curves with 1..4 steps, plus one stepped curve with more steps
  // than kMaxVecSteps (compile-time punt to the per-entry path). Shallow
  // slopes push some crossings to max_size, exercising the runtime punt.
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned;
  for (int i = 0; i < 24; ++i)
    owned.push_back(std::make_shared<core::UnimodalSpeed>(
        10.0 + i, 120.0 + 3.0 * i, 1e4 * (1.0 + i % 5), 2e5 + 1e4 * i,
        1.2 + 0.05 * i, 5e6));
  for (int i = 0; i < 24; ++i) {
    std::vector<core::SteppedSpeed::Step> steps;
    double at = 3e3 * (1.0 + i % 3), to = 90.0 + i;
    for (int s = 0; s <= i % 4; ++s) {
      steps.push_back({at, to, 50.0 + 10.0 * s});
      at *= 7.0;
      to *= 0.55;
    }
    owned.push_back(
        std::make_shared<core::SteppedSpeed>(140.0 + i, std::move(steps), 8e6));
  }
  {
    std::vector<core::SteppedSpeed::Step> many;
    double at = 1e3, to = 200.0;
    for (int s = 0; s < 12; ++s) {
      many.push_back({at, to, 40.0});
      at *= 3.0;
      to *= 0.8;
    }
    owned.push_back(
        std::make_shared<core::SteppedSpeed>(250.0, std::move(many), 1e9));
  }
  core::SpeedList list;
  for (const auto& f : owned) list.push_back(f.get());
  const auto c = CompiledSpeedList::compile(list);
  EXPECT_EQ(c.batched_entries(), list.size() - 1);  // the 12-step curve punts
  std::vector<double> xs(list.size());
  for (const auto* k : runnable_variants()) {
    SCOPED_TRACE(k->name);
    core::SolveContext ctx = backend_context(k);
    for (const double slope : {1e3, 1.0, 1e-2, 1e-5, 1e-9}) {
      c.intersect_all(slope, xs, &ctx);
      for (std::size_t i = 0; i < list.size(); ++i)
        EXPECT_LE(rel_diff(xs[i], list[i]->intersect(slope)), kUlpTolerance)
            << "entry " << i << " slope " << slope;
    }
    // Beyond-max_size crossings must punt to the scalar bisection: with a
    // slope so shallow every crossing clears even max_size·2^256 the
    // answers are exactly the per-entry results, bracket expansion and its
    // saturation count included.
    core::SolveContext saturating = backend_context(k);
    c.intersect_all(1e-300, xs, &saturating);
    EXPECT_GT(saturating.counters.bracket_saturations, 0)
        << "saturating brackets must be counted";
    for (std::size_t i = 0; i < list.size(); ++i)
      EXPECT_EQ(xs[i], list[i]->intersect(1e-300)) << "entry " << i;
  }
}

TEST(Simd, EightWidePuntBoundaryFuzz) {
  // 64 exp-decay curves straddling the 1e-280 underflow floor and 64
  // power-decay curves straddling the 2^256 delegation threshold: at 8-wide
  // every register mixes punting and non-punting lanes, so a mask handled
  // per 4-wide assumptions would corrupt neighbours. Deterministic LCG
  // parameters; every backend must stay inside the tolerance, and punted
  // decisions must be exactly scalar.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto rnd = [&state] {  // uniform in [0, 1)
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned;
  for (int i = 0; i < 64; ++i)
    owned.push_back(std::make_shared<core::ExpDecaySpeed>(
        50.0 + 200.0 * rnd(), 0.5 + 2.0 * rnd(), 1e8));
  for (int i = 0; i < 64; ++i)
    owned.push_back(std::make_shared<core::PowerDecaySpeed>(
        50.0 + 200.0 * rnd(), 5.0 + 20.0 * rnd(), 0.0005 + 0.1 * rnd(), 1e6));
  core::SpeedList list;
  for (const auto& f : owned) list.push_back(f.get());
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> xs(list.size());
  for (const auto* k : runnable_variants()) {
    SCOPED_TRACE(k->name);
    core::SolveContext ctx = backend_context(k);
    for (const double slope :
         {1e2, 1.0, 1e-30, 1e-120, 1e-200, 1e-285, 1e-295, 1e-305}) {
      c.intersect_all(slope, xs, &ctx);
      for (std::size_t i = 0; i < list.size(); ++i)
        EXPECT_LE(rel_diff(xs[i], list[i]->intersect(slope)), kUlpTolerance)
            << "entry " << i << " slope " << slope;
    }
  }
}

TEST(Simd, RegistryAlgorithmsEquivalentOnEveryBackend) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(96, 5);
  const core::SpeedList list = fleet.list();
  const std::int64_t n = 40'000'000;
  std::vector<core::PartitionResult> oracle;
  for (const core::PartitionerInfo& info :
       core::partitioner_registry().entries()) {
    core::PartitionPolicy policy;
    policy.algorithm = info.id;
    oracle.push_back(partition_on(list, n, policy, scalar_context()));
  }
  for (const auto* k : runnable_variants()) {
    SCOPED_TRACE(k->name);
    const core::SolveContext ctx = backend_context(k);
    std::size_t a = 0;
    for (const core::PartitionerInfo& info :
         core::partitioner_registry().entries()) {
      core::PartitionPolicy policy;
      policy.algorithm = info.id;
      const core::PartitionResult r = partition_on(list, n, policy, ctx);
      EXPECT_EQ(r.distribution.total(), n) << info.id;
      EXPECT_LE(rel_diff(makespan(list, r.distribution.counts),
                         makespan(list, oracle[a].distribution.counts)),
                1e-9)
          << info.id;
      ++a;
    }
  }
}

// --- speeds_at / the fine-tune epilogue sweep. --------------------------

TEST(Simd, SpeedsAtMatchesPerEntrySpeeds) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(512, 23);
  const core::SpeedList list = fleet.list();
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> xs(list.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = 1.0 + static_cast<double>((i * 37) % 100000);
  // Scalar mode: the batched sweep is the same per-entry arithmetic in a
  // different loop — bit-identical.
  {
    core::SolveContext scalar = scalar_context();
    const std::vector<double> got = core::speeds_at(c, xs, &scalar);
    EXPECT_EQ(scalar.counters.speed_evals,
              static_cast<std::int64_t>(list.size()));
    for (std::size_t i = 0; i < list.size(); ++i)
      EXPECT_EQ(got[i], list[i]->speed(xs[i])) << "entry " << i;
  }
  // Vector mode, every backend: power/exp lanes run the polynomial kernels,
  // everything else stays bit-identical.
  for (const auto* k : runnable_variants()) {
    SCOPED_TRACE(k->name);
    core::SolveContext ctx = backend_context(k);
    const std::vector<double> got = core::speeds_at(c, xs, &ctx);
    for (std::size_t i = 0; i < list.size(); ++i)
      EXPECT_LE(rel_diff(got[i], list[i]->speed(xs[i])), kUlpTolerance)
          << "entry " << i;
  }
}

TEST(Simd, SizesAtBitIdenticalPerAlgorithmSlopesInScalarMode) {
  // One registry-algorithm solve per family mix, then replay its final
  // slope through sizes_at (one batched sweep) and through a per-entry
  // intersect loop: with the scalar kernels the two must agree bit for bit
  // for every algorithm.
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(128, 29);
  const core::SpeedList list = fleet.list();
  const auto c = CompiledSpeedList::compile(list);
  core::SolveContext scalar = scalar_context();
  for (const core::PartitionerInfo& info :
       core::partitioner_registry().entries()) {
    core::PartitionPolicy policy;
    policy.algorithm = info.id;
    const core::PartitionResult r =
        core::partition(c, 5'000'000, policy, scalar);
    const double slope = r.stats.final_slope;
    if (!(slope > 0.0)) continue;  // bounded may finish outside the bracket
    const std::vector<double> batched = core::sizes_at(c, slope, &scalar);
    std::vector<double> per_entry(c.size());
    for (std::size_t i = 0; i < c.size(); ++i)
      per_entry[i] = c.intersect(i, slope, &scalar);
    EXPECT_EQ(batched, per_entry) << info.id;
  }
}

// --- Backend selection / rejection. -------------------------------------

TEST(Simd, ForceBackendRoundTripsAndRejectsUnknownNames) {
  EXPECT_THROW(core::SolveContext::for_backend("bogus"),
               std::invalid_argument);
  EXPECT_THROW(core::SolveContext::for_backend(""), std::invalid_argument);
  for (const auto* k : core::detail::simd::compiled_simd_variants()) {
    if (!core::detail::simd::simd_variant_supported(*k)) {
      // Compiled in but not runnable here: selecting must refuse, not crash.
      EXPECT_THROW(backend_context(k), std::invalid_argument);
      continue;
    }
    const core::SolveContext ctx = backend_context(k);
    EXPECT_EQ(ctx.kernels(), k);
    EXPECT_STREQ(core::to_string(ctx.backend()), k->name);
  }
  EXPECT_EQ(scalar_context().kernels(), nullptr);
  EXPECT_EQ(scalar_context().backend(), core::SimdBackend::Disabled);
  if (core::simd_kernels_available()) {
    EXPECT_NE(core::SolveContext::for_backend("auto").backend(),
              core::SimdBackend::Disabled);
  }
}

// --- Backend introspection. ---------------------------------------------

TEST(Simd, BackendIntrospectionIsConsistent) {
  const bool available = core::simd_kernels_available();
  const core::SimdBackend backend = core::active_simd_backend();
  EXPECT_EQ(backend, core::SolveContext().backend());
  if (!available) {
    EXPECT_EQ(backend, core::SimdBackend::Disabled);
  } else {
    EXPECT_NE(core::SolveContext::for_backend("auto").backend(),
              core::SimdBackend::Disabled);
    EXPECT_EQ(scalar_context().backend(), core::SimdBackend::Disabled);
  }
}

// --- Concurrent solves on different contexts. ---------------------------

/// Everything a solve answers: the distribution, the stats that describe
/// the search, and the sizes of its final line.
struct Answer {
  core::PartitionResult result;
  std::vector<double> sizes;

  bool operator==(const Answer& o) const {
    const core::PartitionStats& a = result.stats;
    const core::PartitionStats& b = o.result.stats;
    return result.distribution.counts == o.result.distribution.counts &&
           a.final_slope == b.final_slope && a.iterations == b.iterations &&
           a.speed_evals == b.speed_evals &&
           a.intersect_solves == b.intersect_solves &&
           a.bracket_saturations == b.bracket_saturations && sizes == o.sizes;
  }
};

TEST(Simd, ConcurrentSolvesOnDifferentContextsDoNotInterfere) {
  // Two threads solve one model at the same time, one on the scalar
  // context and one on the SIMD context. With a process-wide kernel switch
  // one caller could flip the other's kernels mid-solve; with contexts each
  // must get exactly the answer its context gives alone. p is above
  // kParallelSweepEntries, so both also share the lane pool.
  core::detail::set_lane_pool_threads(2);
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(1100, 31);
  const auto c = CompiledSpeedList::compile(fleet.list());
  const std::int64_t n = 100'000'000;
  const core::SolveContext contexts[2] = {scalar_context(), simd_context()};
  const double probe =
      core::partition(c, n, {}, contexts[0]).stats.final_slope;
  const auto solve = [&](const core::SolveContext& ctx) {
    Answer a;
    a.result = core::partition(c, n, {}, ctx);
    core::SolveContext sweep = ctx;
    a.sizes = core::sizes_at(c, probe, &sweep);
    return a;
  };
  const Answer alone[2] = {solve(contexts[0]), solve(contexts[1])};
  if (contexts[1].kernels() != nullptr) {
    EXPECT_NE(alone[0].sizes, alone[1].sizes)
        << "the two contexts must answer differently for the check to bite";
  }

  std::atomic<int> mismatches[2] = {0, 0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t)
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 10; ++rep)
        if (!(solve(contexts[t]) == alone[t])) ++mismatches[t];
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches[0].load(), 0) << "scalar context";
  EXPECT_EQ(mismatches[1].load(), 0) << "SIMD context";
}

}  // namespace
}  // namespace fpm
