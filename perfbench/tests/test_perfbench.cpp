// Unit tests of the benchmark's own machinery: the answer verifier, the
// seeded input generators and the per-workload peak-RSS reset.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/compiled.hpp"
#include "core/policy.hpp"
#include "runners.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace {

using namespace fpmbench;
namespace core = fpm::core;

struct Solved {
  core::SyntheticFleet fleet;
  core::SpeedList list;
  std::int64_t n;
  core::Distribution answer;
};

Solved solve(std::size_t p, std::uint64_t seed, std::int64_t n) {
  Solved s{core::make_synthetic_fleet(p, seed), {}, n, {}};
  s.list = s.fleet.list();
  s.answer = core::partition(s.list, n).distribution;
  return s;
}

TEST(Verify, EngineAnswersPassTheCertificate) {
  for (const std::size_t p : {16u, 256u})
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const Solved s = solve(p, seed, 50'000'000);
      EXPECT_EQ(check_full(s.list, s.n, s.answer), "") << p << " " << seed;
    }
}

TEST(Verify, MovingOneElementFromFastestToSlowestFailsTheCertificate) {
  Solved s = solve(64, 7, 50'000'000);
  ASSERT_EQ(check_full(s.list, s.n, s.answer), "");
  std::size_t fastest = 0, slowest = 0;
  for (std::size_t i = 0; i < s.list.size(); ++i) {
    const auto speed = [&](std::size_t k) {
      return s.list[k]->speed(static_cast<double>(s.answer.counts[k]));
    };
    if (speed(i) > speed(fastest)) fastest = i;
    if (speed(i) < speed(slowest)) slowest = i;
  }
  ASSERT_NE(fastest, slowest);
  --s.answer.counts[fastest];
  ++s.answer.counts[slowest];
  const Violation v = check_full(s.list, s.n, s.answer);
  EXPECT_NE(v.find("exchange certificate"), std::string::npos) << v;
}

TEST(Verify, RejectsWrongTotalsNegativeCountsAndBadBounds) {
  Solved s = solve(16, 3, 1'000'000);
  core::Distribution short_by_one = s.answer;
  --short_by_one.counts[0];
  EXPECT_NE(check_full(s.list, s.n, short_by_one), "");
  core::Distribution negative = s.answer;
  negative.counts[1] += negative.counts[0] + 1;
  negative.counts[0] = -1;
  EXPECT_NE(check_full(s.list, s.n, negative), "");
  EXPECT_EQ(check_degraded(s.list, s.n, s.answer, 0.01), "");
  EXPECT_NE(check_degraded(s.list, s.n, s.answer, -0.5), "");
  EXPECT_NE(check_degraded(s.list, s.n, s.answer,
                           std::numeric_limits<double>::quiet_NaN()),
            "");
  EXPECT_NE(check_degraded(s.list, s.n, short_by_one, 0.01), "");
}

TEST(Workloads, SameSeedGivesTheSameZipfRequests) {
  const ZipfConfig cfg = zipf_config(/*smoke=*/true);
  const auto schedule = [&](std::uint64_t seed) {
    return make_zipf_schedule(cfg, make_zipf_inputs(cfg, seed), seed, 2.0);
  };
  const auto a = schedule(11);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, schedule(11));
  EXPECT_NE(a, schedule(12));
  EXPECT_TRUE(std::any_of(a.begin(), a.end(),
                          [](const ZipfRequest& r) { return r.repeat; }));
  EXPECT_TRUE(std::any_of(a.begin(), a.end(),
                          [](const ZipfRequest& r) { return !r.repeat; }));
}

TEST(Workloads, SameSeedGivesTheSameFleets) {
  const auto fingerprints = [](std::uint64_t seed) {
    const ChurnConfig cfg = churn_config(/*smoke=*/true);
    std::vector<std::uint64_t> fps;
    for (const core::SpeedList& l : make_churn_inputs(cfg, seed).lists)
      fps.push_back(core::CompiledSpeedList::fingerprint_of(l));
    return fps;
  };
  EXPECT_EQ(fingerprints(4), fingerprints(4));
  EXPECT_NE(fingerprints(4), fingerprints(5));
}

TEST(Workloads, SameSeedGivesTheSameChurnAndColdSequences) {
  const ChurnConfig cfg = churn_config(/*smoke=*/true);
  const auto churn = [&](std::uint64_t seed) {
    ChurnStream stream(cfg, seed);
    std::vector<ChurnRequest> out;
    for (int i = 0; i < 100; ++i) out.push_back(stream.next());
    return out;
  };
  EXPECT_EQ(churn(9), churn(9));
  EXPECT_NE(churn(9), churn(10));
  for (const ChurnRequest& r : churn(9)) {
    EXPECT_GE(r.n, static_cast<std::int64_t>(cfg.n_lo));
    EXPECT_LE(r.n, static_cast<std::int64_t>(cfg.n_hi));
  }

  const auto sizes = [](std::uint64_t seed) {
    SizeStream s(seed, 1e8, 1e9);
    std::vector<std::int64_t> out;
    for (int i = 0; i < 100; ++i) out.push_back(s.next());
    return out;
  };
  EXPECT_EQ(sizes(3), sizes(3));
  EXPECT_NE(sizes(3), sizes(4));
}

TEST(PeakRss, ResetForgetsAnEarlierPeak) {
  constexpr std::size_t kBytes = std::size_t{96} << 20;
  {
    std::vector<char> big(kBytes, 1);  // touched, so resident
    EXPECT_GE(peak_rss_mb(), 96.0);
  }
  const double before = peak_rss_mb();
  reset_peak_rss();
  EXPECT_LT(peak_rss_mb(), before - 64.0);
}

}  // namespace
