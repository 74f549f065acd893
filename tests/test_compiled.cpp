// Equivalence tests for the compiled speed-model layer (core/compiled.*):
// bit-identical speed() / intersect() per family, closed-form intersections
// against the generic bisection, every search decision of every registry
// algorithm replayed on the virtual SpeedFunction helpers, partition() on a
// compiled model against the SpeedList overload, content-hash fingerprint
// semantics (every single-word change and every
// swap changes the hash, Generic entries keyed by a never-reused object id),
// and the exact-type classification of a mixed wrapped fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/fleetgen.hpp"
#include "core/fpm.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"

namespace fpm {
namespace {

using core::CompiledSpeedList;

/// A context on the bit-exact scalar batch kernels: the SIMD lanes are
/// only ULP-equivalent to the virtual path (tests/test_simd.cpp owns that
/// gate), so the bit-identity assertions below run in scalar mode.
core::SolveContext scalar_context() {
  return core::SolveContext::for_backend("off");
}

/// Every ensemble the suite knows, plus mixed and a piecewise curve set.
std::vector<test::Ensemble> equivalence_ensembles() {
  auto out = test::all_ensembles(4);
  out.push_back(test::mixed_ensemble());
  test::Ensemble pw{"piecewise", {}};
  for (int i = 0; i < 3; ++i) {
    const double d = static_cast<double>(i);
    std::vector<core::SpeedPoint> pts{{1e3, 180.0 + 20.0 * d},
                                      {5e5, 160.0 + 20.0 * d},
                                      {2e7, 90.0 + 10.0 * d},
                                      {4e8, 12.0 + d}};
    pw.owned.push_back(
        std::make_shared<core::PiecewiseLinearSpeed>(std::move(pts)));
  }
  out.push_back(std::move(pw));
  return out;
}

TEST(Compiled, SpeedAndIntersectBitIdenticalPerFamily) {
  for (const test::Ensemble& e : equivalence_ensembles()) {
    const core::SpeedList list = e.list();
    const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
    ASSERT_EQ(compiled.size(), list.size());
    EXPECT_TRUE(compiled.fully_compiled()) << e.name;
    for (std::size_t i = 0; i < list.size(); ++i) {
      for (double x = 1.0; x <= 4e9; x *= 3.7)
        EXPECT_EQ(compiled.speed(i, x), list[i]->speed(x))
            << e.name << " curve " << i << " at x=" << x;
      for (double x = 10.0; x <= 1e8; x *= 10.0) {
        const double slope = list[i]->speed(x) / x;
        EXPECT_EQ(compiled.intersect(i, slope), list[i]->intersect(slope))
            << e.name << " curve " << i << " slope through x=" << x;
      }
    }
  }
}

TEST(Compiled, WrappersCompileOneLevelDeep) {
  auto power = std::make_shared<core::PowerDecaySpeed>(170.0, 3e7, 1.1, 1e9);
  auto exp = std::make_shared<core::ExpDecaySpeed>(150.0, 5e4, 2e6);
  const core::ScaledSpeed scaled(power, 0.75);
  const core::GranularSpeed granular(exp, 48.0);
  const core::GranularSpeedView view(*power, 9.0);

  const core::SpeedList list{&scaled, &granular, &view};
  const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
  EXPECT_TRUE(compiled.fully_compiled());
  EXPECT_EQ(compiled.wrap(0), CompiledSpeedList::Wrap::Scaled);
  EXPECT_EQ(compiled.family(0), CompiledSpeedList::Family::PowerDecay);
  EXPECT_EQ(compiled.wrap(1), CompiledSpeedList::Wrap::Granular);
  EXPECT_EQ(compiled.family(1), CompiledSpeedList::Family::ExpDecay);
  EXPECT_EQ(compiled.wrap(2), CompiledSpeedList::Wrap::Granular);
  for (std::size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ(compiled.max_size(i), list[i]->max_size());
    for (double x = 1.0; x <= 1e8; x *= 2.9)
      EXPECT_EQ(compiled.speed(i, x), list[i]->speed(x)) << "curve " << i;
    for (double x = 100.0; x <= 1e6; x *= 10.0) {
      const double slope = list[i]->speed(x) / x;
      EXPECT_EQ(compiled.intersect(i, slope), list[i]->intersect(slope))
          << "curve " << i;
    }
  }
}

/// An unknown SpeedFunction subclass must fall back to a Generic entry that
/// forwards to the virtual object.
class OddSpeed final : public core::SpeedFunction {
 public:
  double speed(double x) const override { return 130.0 / (1.0 + x / 1e6); }
  double max_size() const override { return 1e8; }
};

TEST(Compiled, UnknownSubclassFallsBackToGeneric) {
  const OddSpeed odd;
  auto constant = std::make_shared<core::ConstantSpeed>(100.0, 1e9);
  const core::SpeedList list{&odd, constant.get()};
  const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
  EXPECT_FALSE(compiled.fully_compiled());
  EXPECT_EQ(compiled.generic_entries(), 1u);
  EXPECT_EQ(compiled.family(0), CompiledSpeedList::Family::Generic);
  EXPECT_EQ(compiled.family(1), CompiledSpeedList::Family::Constant);
  for (double x = 1.0; x <= 1e8; x *= 5.1)
    EXPECT_EQ(compiled.speed(0, x), odd.speed(x));
  for (double slope : {1e-4, 1e-2, 1.0, 50.0})
    EXPECT_EQ(compiled.intersect(0, slope), odd.intersect(slope));
}

/// Satellite regression: the closed-form intersections of the power- and
/// exponential-decay families must agree with the generic bisection (the
/// SpeedFunction base implementation, reached via a qualified call) to 1e-9
/// relative across slopes spanning ~300 orders of magnitude.
void expect_close(double a, double b, const char* what, double slope) {
  const double scale = std::max(std::abs(a), std::abs(b));
  EXPECT_LE(std::abs(a - b), 1e-9 * scale)
      << what << " at slope " << slope << ": closed " << a << " generic " << b;
}

TEST(Compiled, PowerDecayClosedFormMatchesBisection) {
  for (const double x0 : {3e5, 2e7}) {
    for (const double k : {0.5, 1.0, 2.0, 3.5, 8.0, 20.0}) {
      const core::PowerDecaySpeed f(150.0, x0, k, 1e9);
      for (int e = -300; e <= 6; e += 3)
        expect_close(f.intersect(std::pow(10.0, e)),
                     f.SpeedFunction::intersect(std::pow(10.0, e)),
                     "power-decay", std::pow(10.0, e));
    }
  }
}

TEST(Compiled, ExpDecayClosedFormMatchesBisection) {
  for (const double lambda : {5e3, 4.5e4, 4e5, 2e6, 1.2e7}) {
    const core::ExpDecaySpeed f(150.0, lambda, 2e6);
    for (int e = -300; e <= 6; e += 3)
      expect_close(f.intersect(std::pow(10.0, e)),
                   f.SpeedFunction::intersect(std::pow(10.0, e)), "exp-decay",
                   std::pow(10.0, e));
  }
}

/// Candidate integers strictly above the steep line and at or below the
/// shallow one, summed over processors (SearchStep::interior).
std::int64_t interior_of(const std::vector<double>& small,
                         const std::vector<double>& large) {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < small.size(); ++i)
    if (large[i] > small[i])
      total += static_cast<std::int64_t>(std::floor(large[i])) -
               static_cast<std::int64_t>(std::floor(small[i]));
  return total;
}

TEST(Compiled, EverySearchDecisionReplaysOnTheVirtualHelpers) {
  // The engine runs on compiled models only. Replay each recorded search
  // on the virtual SpeedFunction helpers of core/partition.hpp: the
  // bracket, every line's keep-low decision, every modified step's slope
  // and the final fine-tune must be the ones those helpers give, bit for
  // bit in scalar mode.
  for (const test::Ensemble& e : equivalence_ensembles()) {
    const core::SpeedList list = e.list();
    const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
    for (const std::string& alg : core::partitioner_registry().ids()) {
      for (const std::int64_t n : {1000LL, 1000000LL}) {
        SCOPED_TRACE(e.name + " " + alg + " n=" + std::to_string(n));
        std::vector<core::SearchStep> steps;
        core::PartitionPolicy policy;
        policy.algorithm = alg;
        policy.observer = [&steps](const core::SearchStep& s) {
          steps.push_back(s);
        };
        const core::PartitionResult r =
            core::partition(compiled, n, policy, scalar_context());
        ASSERT_FALSE(steps.empty());
        // One bracket: bounded never clamps under its default bounds here,
        // so its single round is the combined search over the whole list.
        ASSERT_EQ(std::count_if(steps.begin(), steps.end(),
                                [](const core::SearchStep& s) {
                                  return s.kind == core::SearchStepKind::Bracket;
                                }),
                  1);
        const core::SlopeBracket br = core::detect_bracket(list, n);
        ASSERT_EQ(steps[0].kind, core::SearchStepKind::Bracket);
        EXPECT_EQ(steps[0].lo_slope, br.lo_slope);
        EXPECT_EQ(steps[0].hi_slope, br.hi_slope);
        double lo = br.lo_slope, hi = br.hi_slope;
        std::vector<double> small = core::sizes_at(list, hi);
        std::vector<double> large = core::sizes_at(list, lo);
        EXPECT_EQ(steps[0].interior, interior_of(small, large));
        for (std::size_t k = 1; k < steps.size(); ++k) {
          const core::SearchStep& s = steps[k];
          if (s.kind == core::SearchStepKind::Degenerate) continue;
          if (s.kind == core::SearchStepKind::Modified) {
            const double m = 0.5 * (small[s.processor] + large[s.processor]);
            EXPECT_EQ(s.slope, list[s.processor]->speed(m) / m) << "step " << k;
          }
          const bool kept_low =
              core::total_size_at(list, s.slope) < static_cast<double>(n);
          EXPECT_EQ(s.kept_low, kept_low) << "step " << k;
          (kept_low ? hi : lo) = s.slope;
          (kept_low ? small : large) = core::sizes_at(list, s.slope);
          EXPECT_EQ(s.lo_slope, lo) << "step " << k;
          EXPECT_EQ(s.hi_slope, hi) << "step " << k;
          EXPECT_EQ(s.interior, interior_of(small, large)) << "step " << k;
        }
        EXPECT_EQ(r.stats.final_slope, hi);
        EXPECT_EQ(r.distribution.counts,
                  core::fine_tune(list, n, core::sizes_at(list, hi)).counts);
      }
    }
  }
}

TEST(Compiled, BracketAndSizesMatchVirtualHelpers) {
  for (const test::Ensemble& e : equivalence_ensembles()) {
    const core::SpeedList list = e.list();
    const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
    for (const std::int64_t n : {100LL, 5000000LL}) {
      core::SolveContext ctx = scalar_context();
      const core::SlopeBracket a = detect_bracket(compiled, n, &ctx);
      const core::SlopeBracket b = detect_bracket(list, n);
      EXPECT_EQ(a.lo_slope, b.lo_slope) << e.name << " n=" << n;
      EXPECT_EQ(a.hi_slope, b.hi_slope) << e.name << " n=" << n;
      EXPECT_GT(ctx.counters.speed_evals, 0) << e.name;
      EXPECT_GT(ctx.counters.intersect_solves, 0) << e.name;
      EXPECT_EQ(sizes_at(compiled, a.lo_slope, &ctx),
                sizes_at(list, b.lo_slope))
          << e.name << " n=" << n;
      EXPECT_EQ(total_size_at(compiled, a.hi_slope, &ctx),
                total_size_at(list, b.hi_slope))
          << e.name << " n=" << n;
    }
  }
}

TEST(Compiled, FingerprintIsContentHashForKnownFamilies) {
  const test::Ensemble a = test::power_ensemble(5);
  const test::Ensemble b = test::power_ensemble(5);  // distinct objects
  EXPECT_EQ(CompiledSpeedList::compile(a.list()).fingerprint(),
            CompiledSpeedList::compile(b.list()).fingerprint());

  const test::Ensemble c = test::power_ensemble(4);  // different p
  EXPECT_NE(CompiledSpeedList::compile(a.list()).fingerprint(),
            CompiledSpeedList::compile(c.list()).fingerprint());

  const core::PowerDecaySpeed p1(90.0, 2e7, 0.8, 1e9);
  const core::PowerDecaySpeed p2(90.0, 2e7, 0.9, 1e9);  // one param differs
  EXPECT_NE(CompiledSpeedList::compile({&p1}).fingerprint(),
            CompiledSpeedList::compile({&p2}).fingerprint());

  // Families with identical raw parameters must still hash apart.
  const core::ConstantSpeed k1(100.0, 1e9);
  const core::ExpDecaySpeed k2(100.0, 1e9, 1e9);
  EXPECT_NE(CompiledSpeedList::compile({&k1}).fingerprint(),
            CompiledSpeedList::compile({&k2}).fingerprint());
}

TEST(Compiled, FingerprintUsesIdentityForGenericEntries) {
  const OddSpeed odd1, odd2;
  EXPECT_EQ(CompiledSpeedList::compile({&odd1}).fingerprint(),
            CompiledSpeedList::compile({&odd1}).fingerprint());
  EXPECT_NE(CompiledSpeedList::compile({&odd1}).fingerprint(),
            CompiledSpeedList::compile({&odd2}).fingerprint());
}

/// One model of every family the compiled layer reads structurally.
std::vector<std::shared_ptr<const core::SpeedFunction>> one_of_each_family() {
  return {
      std::make_shared<core::ConstantSpeed>(100.0, 1e9),
      std::make_shared<core::LinearDecaySpeed>(120.0, 4e8, 0.01),
      std::make_shared<core::PowerDecaySpeed>(170.0, 3e7, 1.1, 1e9),
      std::make_shared<core::ExpDecaySpeed>(150.0, 5e4, 2e6),
      std::make_shared<core::UnimodalSpeed>(40.0, 160.0, 2e6, 3e7, 1.4, 6e8),
      std::make_shared<core::SteppedSpeed>(
          200.0,
          std::vector<core::SteppedSpeed::Step>{{1e5, 150.0, 2e4},
                                                {4e6, 90.0, 5e5}},
          8e8),
      std::make_shared<core::PiecewiseLinearSpeed>(
          std::vector<core::SpeedPoint>{
              {1e3, 180.0}, {5e5, 160.0}, {2e7, 90.0}, {4e8, 12.0}}),
  };
}

TEST(Compiled, FingerprintOfMatchesCompileAcrossAllEnsembles) {
  // fingerprint_of is the cache-key fast path: it must reproduce the exact
  // hash compile() stores, for every family, wrapper, and the piecewise
  // breakpoint pools.
  for (const test::Ensemble& e : equivalence_ensembles()) {
    const core::SpeedList list = e.list();
    EXPECT_EQ(CompiledSpeedList::fingerprint_of(list),
              CompiledSpeedList::compile(list).fingerprint())
        << e.name;
  }
  // Every family bare, under each wrapper, and under nested wrappers
  // (Generic), plus unknown subclasses bare and wrapped — alone and in one
  // list.
  const auto families = one_of_each_family();
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned;
  for (const auto& f : families) {
    owned.push_back(f);
    owned.push_back(std::make_shared<core::ScaledSpeed>(f, 0.75));
    owned.push_back(std::make_shared<core::GranularSpeed>(f, 6.0));
    owned.push_back(std::make_shared<core::GranularSpeedView>(*f, 3.0));
    owned.push_back(std::make_shared<core::ScaledSpeed>(
        std::make_shared<core::GranularSpeed>(f, 2.0), 0.5));
  }
  owned.push_back(std::make_shared<OddSpeed>());
  owned.push_back(
      std::make_shared<core::ScaledSpeed>(std::make_shared<OddSpeed>(), 0.9));
  core::SpeedList all;
  for (const auto& f : owned) {
    const core::SpeedList one{f.get()};
    EXPECT_EQ(CompiledSpeedList::fingerprint_of(one),
              CompiledSpeedList::compile(one).fingerprint());
    all.push_back(f.get());
  }
  EXPECT_EQ(CompiledSpeedList::fingerprint_of(all),
            CompiledSpeedList::compile(all).fingerprint());
  EXPECT_EQ(CompiledSpeedList::compile(all).generic_entries(),
            families.size() + 2);
  EXPECT_THROW(CompiledSpeedList::fingerprint_of({nullptr}),
               std::invalid_argument);
}

TEST(Compiled, FingerprintMixKeepsBitPatternsApart) {
  using core::detail::fingerprint_mix;
  using core::detail::fingerprint_mix_bits;
  for (const std::uint64_t h : {0ULL, 1ULL, 0x0123456789abcdefULL}) {
    EXPECT_NE(fingerprint_mix_bits(h, 0.0), fingerprint_mix_bits(h, -0.0));
    const double nan_a = std::bit_cast<double>(0x7ff8000000000001ULL);
    const double nan_b = std::bit_cast<double>(0x7ff8000000000002ULL);
    EXPECT_NE(fingerprint_mix_bits(h, nan_a), fingerprint_mix_bits(h, nan_b));
    // One differing word never collides, in either argument.
    for (std::uint64_t bit = 0; bit < 64; ++bit) {
      EXPECT_NE(fingerprint_mix(h, 7), fingerprint_mix(h, 7 ^ (1ULL << bit)));
      EXPECT_NE(fingerprint_mix(7, h), fingerprint_mix(7 ^ (1ULL << bit), h));
    }
  }
}

TEST(Compiled, FlippingAnySingleParameterWordChangesTheFingerprint) {
  const auto up = [](double v) {
    return std::nextafter(v, std::numeric_limits<double>::infinity());
  };
  using Step = core::SteppedSpeed::Step;
  using Point = core::SpeedPoint;
  const auto stepped = [](double s0, std::vector<Step> steps, double max) {
    return std::make_shared<core::SteppedSpeed>(s0, std::move(steps), max);
  };
  const auto piecewise = [](std::vector<Point> pts) {
    return std::make_shared<core::PiecewiseLinearSpeed>(std::move(pts));
  };
  const auto power = std::make_shared<core::PowerDecaySpeed>(170.0, 3e7, 1.1, 1e9);
  const std::vector<Step> steps{{1e5, 150.0, 2e4}, {4e6, 90.0, 5e5}};
  const std::vector<Point> pts{{1e3, 180.0}, {5e5, 160.0}, {2e7, 90.0},
                               {4e8, 0.0}};
  // Each group: the base model first, then variants that differ from it in
  // exactly one hashed word.
  std::vector<std::vector<std::shared_ptr<const core::SpeedFunction>>> groups;
  groups.push_back({std::make_shared<core::ConstantSpeed>(100.0, 1e9),
                    std::make_shared<core::ConstantSpeed>(up(100.0), 1e9),
                    std::make_shared<core::ConstantSpeed>(100.0, up(1e9))});
  groups.push_back(
      {std::make_shared<core::LinearDecaySpeed>(120.0, 4e8, 0.25),
       std::make_shared<core::LinearDecaySpeed>(up(120.0), 4e8, 0.25),
       std::make_shared<core::LinearDecaySpeed>(120.0, up(4e8), 0.25),
       std::make_shared<core::LinearDecaySpeed>(120.0, 4e8, up(0.25))});
  groups.push_back(
      {power, std::make_shared<core::PowerDecaySpeed>(up(170.0), 3e7, 1.1, 1e9),
       std::make_shared<core::PowerDecaySpeed>(170.0, up(3e7), 1.1, 1e9),
       std::make_shared<core::PowerDecaySpeed>(170.0, 3e7, up(1.1), 1e9),
       std::make_shared<core::PowerDecaySpeed>(170.0, 3e7, 1.1, up(1e9))});
  groups.push_back({std::make_shared<core::ExpDecaySpeed>(150.0, 5e4, 2e6),
                    std::make_shared<core::ExpDecaySpeed>(up(150.0), 5e4, 2e6),
                    std::make_shared<core::ExpDecaySpeed>(150.0, up(5e4), 2e6),
                    std::make_shared<core::ExpDecaySpeed>(150.0, 5e4, up(2e6))});
  {
    const double u[6] = {40.0, 160.0, 2e6, 3e7, 1.4, 6e8};
    std::vector<std::shared_ptr<const core::SpeedFunction>> g;
    g.push_back(std::make_shared<core::UnimodalSpeed>(u[0], u[1], u[2], u[3],
                                                      u[4], u[5]));
    for (int k = 0; k < 6; ++k) {
      double v[6];
      std::copy(u, u + 6, v);
      v[k] = up(v[k]);
      g.push_back(std::make_shared<core::UnimodalSpeed>(v[0], v[1], v[2], v[3],
                                                        v[4], v[5]));
    }
    groups.push_back(std::move(g));
  }
  {
    std::vector<std::shared_ptr<const core::SpeedFunction>> g{
        stepped(200.0, steps, 8e8), stepped(up(200.0), steps, 8e8),
        stepped(200.0, steps, up(8e8))};
    for (std::size_t s = 0; s < steps.size(); ++s) {
      for (int field = 0; field < 3; ++field) {
        std::vector<Step> v = steps;
        double& w = field == 0 ? v[s].at : field == 1 ? v[s].to : v[s].width;
        w = up(w);
        g.push_back(stepped(200.0, std::move(v), 8e8));
      }
    }
    groups.push_back(std::move(g));
  }
  {
    std::vector<std::shared_ptr<const core::SpeedFunction>> g{piecewise(pts)};
    for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
      std::vector<Point> v = pts;
      v[i].size = up(v[i].size);
      g.push_back(piecewise(v));
      v = pts;
      v[i].speed = up(v[i].speed);
      g.push_back(piecewise(std::move(v)));
    }
    // The last breakpoint's speed +0.0 vs -0.0: equal values, distinct
    // words.
    std::vector<Point> neg = pts;
    neg.back().speed = -0.0;
    g.push_back(piecewise(std::move(neg)));
    groups.push_back(std::move(g));
  }
  groups.push_back({std::make_shared<core::ScaledSpeed>(power, 0.75),
                    std::make_shared<core::ScaledSpeed>(power, up(0.75))});
  groups.push_back({std::make_shared<core::GranularSpeed>(power, 6.0),
                    std::make_shared<core::GranularSpeed>(power, up(6.0))});

  const auto other = std::make_shared<core::ConstantSpeed>(77.0, 1e9);
  for (const auto& g : groups) {
    // In a list context too: the flipped word sits between other entries.
    const auto fp = [&](const core::SpeedFunction* f) {
      return CompiledSpeedList::fingerprint_of({other.get(), f, other.get()});
    };
    const std::uint64_t base = fp(g[0].get());
    for (std::size_t v = 1; v < g.size(); ++v)
      EXPECT_NE(fp(g[v].get()), base) << "variant " << v;
  }
}

TEST(Compiled, SwappingTwoEntriesChangesTheFingerprint) {
  const auto families = one_of_each_family();
  const OddSpeed odd1, odd2;
  core::SpeedList list{&odd1, &odd2};
  for (const auto& f : families) list.push_back(f.get());
  const std::uint64_t base = CompiledSpeedList::fingerprint_of(list);
  for (std::size_t i = 0; i < list.size(); ++i) {
    for (std::size_t j = i + 1; j < list.size(); ++j) {
      core::SpeedList swapped = list;
      std::swap(swapped[i], swapped[j]);
      EXPECT_NE(CompiledSpeedList::fingerprint_of(swapped), base)
          << "swap " << i << "," << j;
    }
  }
}

/// A Generic (unknown) model whose speed is set at construction.
class LevelSpeed final : public core::SpeedFunction {
 public:
  explicit LevelSpeed(double s) : s_(s) {}
  double speed(double x) const override { return s_ / (1.0 + x / 1e7); }
  double max_size() const override { return 1e9; }

 private:
  double s_;
};

TEST(Compiled, ReusedStorageOfAFreedGenericModelGetsAFreshKey) {
  // The cache keys Generic entries by SpeedFunction::instance_id(), not by
  // address: a model constructed in the storage of a destroyed one must
  // not be served the destroyed model's cached answer.
  alignas(LevelSpeed) unsigned char storage[sizeof(LevelSpeed)];
  const core::ConstantSpeed constant(100.0, 1e9);
  const std::int64_t n = 1000000;
  core::PartitionServer server({.threads = 1});

  auto* slow = new (storage) LevelSpeed(20.0);
  const core::SpeedList list{slow, &constant};
  const std::string key_before = core::PartitionCache::make_key(list, n, {});
  const core::PartitionResult before = server.serve(list, n);
  slow->~LevelSpeed();

  auto* fast = new (storage) LevelSpeed(400.0);
  ASSERT_EQ(static_cast<const void*>(fast), static_cast<const void*>(slow));
  const std::string key_after = core::PartitionCache::make_key(list, n, {});
  EXPECT_NE(key_after, key_before);
  const core::PartitionResult after = server.serve(list, n);
  EXPECT_EQ(after.distribution.counts,
            core::partition(list, n).distribution.counts);
  EXPECT_NE(after.distribution.counts, before.distribution.counts);
  const core::CacheStats stats = server.cache_stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 2);
  fast->~LevelSpeed();
}

TEST(Compiled, CopiesAndAssignmentsOfGenericModelsGetNewIdentities) {
  const LevelSpeed a(20.0);
  const std::uint64_t id = a.instance_id();
  EXPECT_NE(id, 0u);
  EXPECT_EQ(a.instance_id(), id) << "stable once assigned";
  const LevelSpeed copy(a);
  EXPECT_NE(copy.instance_id(), id);
  LevelSpeed assigned(30.0);
  const std::uint64_t old = assigned.instance_id();
  assigned = a;
  EXPECT_NE(assigned.instance_id(), old);
  EXPECT_NE(assigned.instance_id(), id);
}

/// A mixed p = 4096 fleet for the classification table: the default
/// synthetic mix, with entries rewrapped by index — one level of Scaled /
/// Granular / GranularSpeedView (compiled), nested wrappers and wrappers
/// around an unknown subclass (both must stay Generic), and bare unknown
/// subclasses.
struct WrappedFleet {
  core::SyntheticFleet base;
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned;
  core::SpeedList list;
};

WrappedFleet make_wrapped_fleet(std::size_t p, std::uint64_t seed) {
  WrappedFleet w;
  w.base = core::make_synthetic_fleet(p, seed);
  w.owned.reserve(p);
  for (std::size_t i = 0; i < p; ++i) {
    const std::shared_ptr<const core::SpeedFunction>& f = w.base.owned[i];
    const double k = 1.0 + static_cast<double>(i % 7);
    std::shared_ptr<const core::SpeedFunction> g;
    switch (i % 8) {
      case 1:
        g = std::make_shared<core::ScaledSpeed>(f, 0.5 + 0.1 * (i % 5));
        break;
      case 2:
        g = std::make_shared<core::GranularSpeed>(f, k);
        break;
      case 3:
        g = std::make_shared<core::GranularSpeedView>(*f, k);
        break;
      case 4:
        g = std::make_shared<core::ScaledSpeed>(
            std::make_shared<core::GranularSpeed>(f, k), 0.9);
        break;
      case 5: {
        auto scaled = std::make_shared<core::ScaledSpeed>(f, 0.8);
        w.owned.push_back(scaled);  // the view borrows it
        g = std::make_shared<core::GranularSpeedView>(*scaled, k);
        break;
      }
      case 6:
        g = std::make_shared<OddSpeed>();
        break;
      case 7:
        g = std::make_shared<core::ScaledSpeed>(std::make_shared<OddSpeed>(),
                                                0.7);
        break;
      default:
        g = f;
        break;
    }
    w.owned.push_back(g);
    w.list.push_back(g.get());
  }
  return w;
}

TEST(Compiled, ClassificationOfMixedWrappedFleetMatchesFrozenTable) {
  const WrappedFleet w = make_wrapped_fleet(4096, 11);
  const CompiledSpeedList compiled = CompiledSpeedList::compile(w.list);
  ASSERT_EQ(compiled.size(), 4096u);
  // counts[family][wrap] and an order-sensitive digest of the per-entry
  // (family, wrap) sequence, frozen from the dynamic_cast classifier that
  // exact-type dispatch replaced.
  std::array<std::array<int, 3>, 8> counts{};
  std::uint64_t digest = 1469598103934665603ULL;
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    const auto fam = static_cast<std::size_t>(compiled.family(i));
    const auto wrap = static_cast<std::size_t>(compiled.wrap(i));
    ++counts[fam][wrap];
    digest = (digest ^ (fam * 3 + wrap)) * 1099511628211ULL;
  }
  //                       None Scaled Granular
  const std::array<std::array<int, 3>, 8> frozen{{{2048, 0, 0},   // Generic
                                                  {56, 58, 110},  // Constant
                                                  {110, 124, 245},  // Linear
                                                  {151, 135, 312},  // Power
                                                  {139, 141, 256},  // Exp
                                                  {0, 0, 0},      // Unimodal
                                                  {15, 18, 34},   // Stepped
                                                  {41, 36, 67}}};  // Piecewise
  EXPECT_EQ(counts, frozen);
  EXPECT_EQ(digest, 4404389574837678709ULL);
  EXPECT_EQ(compiled.generic_entries(), 2048u);
  // The wrappers classify with their inner family, so their fingerprints
  // must agree with compile() as well.
  EXPECT_EQ(CompiledSpeedList::fingerprint_of(w.list), compiled.fingerprint());
}

TEST(Compiled, PartitionOnACompiledModelMatchesTheListOverload) {
  // The server's miss path compiles once and hands that model to the
  // engine: same answer and stats as partition(list), and no further walk
  // over the models.
  const obs::Counter& walks =
      obs::metrics().counter(obs::names::kCompiledClassifyWalks);
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
  for (const std::string& alg : core::partitioner_registry().ids()) {
    SCOPED_TRACE(alg);
    core::PartitionPolicy policy;
    policy.algorithm = alg;
    const core::PartitionResult plain = core::partition(list, 123456, policy);
    const std::int64_t before = walks.value();
    const core::PartitionResult r = core::partition(compiled, 123456, policy);
    EXPECT_EQ(walks.value() - before, 0);
    EXPECT_EQ(r.distribution.counts, plain.distribution.counts);
    EXPECT_EQ(r.stats.iterations, plain.stats.iterations);
    EXPECT_EQ(r.stats.intersections, plain.stats.intersections);
    EXPECT_EQ(r.stats.final_slope, plain.stats.final_slope);
    EXPECT_EQ(r.stats.algorithm, plain.stats.algorithm);
    EXPECT_EQ(r.stats.switched_to_modified, plain.stats.switched_to_modified);
    EXPECT_EQ(r.stats.speed_evals, plain.stats.speed_evals);
    EXPECT_EQ(r.stats.intersect_solves, plain.stats.intersect_solves);
    EXPECT_EQ(r.stats.warmstart, plain.stats.warmstart);
    EXPECT_EQ(r.stats.iterations_saved, plain.stats.iterations_saved);
    EXPECT_EQ(r.stats.search_speed_evals, plain.stats.search_speed_evals);
    EXPECT_EQ(r.stats.search_intersect_solves,
              plain.stats.search_intersect_solves);
    EXPECT_EQ(r.stats.bracket_saturations, plain.stats.bracket_saturations);
  }
}

}  // namespace
}  // namespace fpm
