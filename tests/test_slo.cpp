// SLO-aware serving: the degraded-answer error bound (property-tested
// against every registry algorithm), the queue-delay estimator, admission
// control (and its recovery from one slow sample), priority shedding,
// run_batch's 1:1 contract, drain(), the per-request model-walk budget,
// and the offered == admitted + degraded + shed accounting invariant.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/fpm.hpp"
#include "core/server.hpp"
#include "core/slo.hpp"
#include "helpers.hpp"

namespace fpm {
namespace {

using namespace std::chrono_literals;

core::SloStats expect_invariant(const core::PartitionServer& server) {
  const core::SloStats s = server.slo_stats();
  EXPECT_EQ(s.offered, s.admitted + s.degraded + s.shed);
  EXPECT_EQ(s.shed, s.shed_admission + s.shed_queue_full + s.shed_expired +
                        s.shed_shutdown);
  return s;
}

// ---------------------------------------------------------------------------
// degraded_answer: construction and the error bound
// ---------------------------------------------------------------------------

TEST(DegradedAnswer, RescalesToExactlyN) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  const core::PartitionResult prev = core::partition(list, 100000);
  for (const std::int64_t n : {1LL, 7LL, 99999LL, 100001LL, 500000LL}) {
    const auto ans =
        core::degraded_answer(list, n, prev.distribution.counts, 100000);
    ASSERT_TRUE(ans.has_value()) << "n=" << n;
    EXPECT_EQ(ans->distribution.total(), n);
    EXPECT_GE(ans->error_bound, 0.0);
    EXPECT_TRUE(std::isfinite(ans->error_bound));
  }
}

TEST(DegradedAnswer, RejectsUnusableInputs) {
  const test::Ensemble e = test::constant_ensemble(3);
  const core::SpeedList list = e.list();
  const std::vector<std::int64_t> prev{400, 300, 300};
  // Size mismatch, bad n, bad prev_n, negative and all-zero counts.
  EXPECT_FALSE(core::degraded_answer(list, 100, {{1, 2}}, 3).has_value());
  EXPECT_FALSE(core::degraded_answer(list, 0, prev, 1000).has_value());
  EXPECT_FALSE(core::degraded_answer(list, 100, prev, 0).has_value());
  EXPECT_FALSE(
      core::degraded_answer(list, 100, {{-1, 500, 501}}, 1000).has_value());
  EXPECT_FALSE(core::degraded_answer(list, 100, {{0, 0, 0}}, 1).has_value());
  EXPECT_FALSE(
      core::degraded_answer(core::SpeedList{}, 100, {}, 1).has_value());
}

// The tentpole property: the reported bound dominates the true relative
// makespan error versus a cold exact solve, for every registry algorithm,
// every curve family, and a spread of (previous n, requested n) pairs —
// including heavy up- and down-scaling.
TEST(DegradedAnswer, BoundDominatesTrueErrorAcrossRegistry) {
  const std::vector<std::pair<std::int64_t, std::int64_t>> scales = {
      {100000, 100000}, {100000, 93000},  {100000, 140000},
      {100000, 10000},  {50000, 400000},  {300000, 17}};
  int checked = 0;
  for (const test::Ensemble& e : test::all_ensembles(4)) {
    const core::SpeedList list = e.list();
    for (const std::string& id : core::partitioner_registry().ids()) {
      core::PartitionPolicy policy;
      policy.algorithm = id;
      if (id == core::kAlgorithmBounded) continue;  // needs bounds; and the
      // server never degrades bounded requests (a rescale may violate them)
      for (const auto& [prev_n, n] : scales) {
        const core::PartitionResult prev =
            core::partition(list, prev_n, policy);
        const auto ans = core::degraded_answer(
            list, n, prev.distribution.counts, prev_n);
        if (!ans) continue;  // rescale left the modelled range: no answer,
                             // and therefore no bound to check
        const core::PartitionResult exact = core::partition(list, n, policy);
        const double exact_makespan = core::makespan(list, exact.distribution);
        ASSERT_GT(exact_makespan, 0.0);
        const double true_error = ans->makespan / exact_makespan - 1.0;
        EXPECT_GE(ans->error_bound, true_error - 1e-9)
            << e.name << "/" << id << " prev_n=" << prev_n << " n=" << n;
        ++checked;
      }
    }
  }
  // The sweep must have exercised a real cross-section of the registry.
  EXPECT_GE(checked, 50);
}

// ---------------------------------------------------------------------------
// QueueDelayEstimator
// ---------------------------------------------------------------------------

TEST(QueueDelayEstimator, FallsBackAcrossClassesAndConverges) {
  core::QueueDelayEstimator est(0.5);
  // Nothing observed: optimistic zero (admit everything).
  EXPECT_EQ(est.service_estimate(core::Priority::Normal), 0.0);
  // High-only samples: Normal falls back to the all-class average.
  est.record(core::Priority::High, 0.010);
  EXPECT_DOUBLE_EQ(est.service_estimate(core::Priority::High), 0.010);
  EXPECT_DOUBLE_EQ(est.service_estimate(core::Priority::Normal), 0.010);
  // Class samples take precedence once they exist, and the EWMA moves
  // toward recent observations.
  est.record(core::Priority::Normal, 0.002);
  EXPECT_DOUBLE_EQ(est.service_estimate(core::Priority::Normal), 0.002);
  for (int i = 0; i < 20; ++i) est.record(core::Priority::Normal, 0.004);
  EXPECT_NEAR(est.service_estimate(core::Priority::Normal), 0.004, 1e-4);
  // Queue delay scales with depth and divides over workers.
  const double one = est.queue_delay(core::Priority::Normal, 10, 1);
  const double four = est.queue_delay(core::Priority::Normal, 10, 4);
  EXPECT_NEAR(one, 4.0 * four, 1e-12);
  EXPECT_EQ(est.queue_delay(core::Priority::Normal, 0, 1), 0.0);
  // Garbage samples are dropped.
  est.record(core::Priority::Low, -1.0);
  est.record(core::Priority::Low, std::nan(""));
  EXPECT_EQ(est.samples(core::Priority::Low), 0);
}

TEST(QueueDelayEstimator, DecayShrinksTheEstimateTheClassReads) {
  core::QueueDelayEstimator est(0.2);
  est.record(core::Priority::High, 0.100);
  // Normal has no samples of its own: decay moves the all-class fallback
  // it reads, and leaves High's own cell alone.
  est.decay(core::Priority::Normal);
  EXPECT_DOUBLE_EQ(est.service_estimate(core::Priority::Normal), 0.080);
  EXPECT_DOUBLE_EQ(est.service_estimate(core::Priority::High), 0.100);
  est.decay(core::Priority::High);
  EXPECT_DOUBLE_EQ(est.service_estimate(core::Priority::High), 0.080);
  EXPECT_EQ(est.samples(core::Priority::High), 1) << "decay is no sample";
}

// ---------------------------------------------------------------------------
// serve_slo
// ---------------------------------------------------------------------------

TEST(ServeSlo, GenerousDeadlineServesExactly) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::PartitionServer server({.threads = 1});
  core::Slo slo;
  slo.deadline_s = 60.0;
  const core::ServeResult r = server.serve_slo(list, 123457, {}, slo);
  EXPECT_EQ(r.status, core::ServeStatus::Ok);
  EXPECT_TRUE(r.deadline_met);
  EXPECT_GT(r.latency_s, 0.0);
  EXPECT_EQ(r.result.distribution.counts,
            core::partition(list, 123457).distribution.counts);
  const core::SloStats s = expect_invariant(server);
  EXPECT_EQ(s.offered, 1);
  EXPECT_EQ(s.admitted, 1);
}

TEST(ServeSlo, ImpossibleDeadlineDegradesFromHintStore) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::PartitionServer server({.threads = 1});
  // Prime the hint store and the estimator with real solves (serve() and
  // serve_slo() both train the estimator).
  server.serve(list, 200000);
  for (int i = 0; i < 5; ++i)
    (void)server.serve_slo(list, 200000 + 1000 * (i + 1), {}, {60.0});
  // A sub-nanosecond budget cannot beat the learned service time: the
  // admission controller must answer from the hint store instead.
  core::Slo tight;
  tight.deadline_s = 1e-9;
  const core::ServeResult r = server.serve_slo(list, 250000, {}, tight);
  EXPECT_EQ(r.status, core::ServeStatus::Degraded);
  EXPECT_EQ(r.shed_reason, core::ShedReason::Admission);
  EXPECT_EQ(r.result.distribution.total(), 250000);
  EXPECT_EQ(r.result.stats.algorithm, core::kAlgorithmDegraded);
  EXPECT_GE(r.error_bound, 0.0);
  // The degraded answer really is within its own bound of the optimum.
  const double exact = core::makespan(
      list, core::partition(list, 250000).distribution);
  const double degraded = core::makespan(list, r.result.distribution);
  EXPECT_LE(degraded, exact * (1.0 + r.error_bound) + 1e-9);
  const core::SloStats s = expect_invariant(server);
  EXPECT_EQ(s.degraded, 1);
}

TEST(ServeSlo, DegradationConsentRefusedMeansShed) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::PartitionServer server({.threads = 1});
  server.serve(list, 200000);
  for (int i = 0; i < 5; ++i)
    (void)server.serve_slo(list, 201000 + 1000 * i, {}, {60.0});
  core::Slo tight;
  tight.deadline_s = 1e-9;
  tight.allow_degraded = false;
  const core::ServeResult r = server.serve_slo(list, 777777, {}, tight);
  EXPECT_EQ(r.status, core::ServeStatus::Shed);
  EXPECT_EQ(r.shed_reason, core::ShedReason::Admission);
  EXPECT_FALSE(r.answered());
  const core::SloStats s = expect_invariant(server);
  EXPECT_EQ(s.shed_admission, 1);
}

TEST(ServeSlo, CacheHitBeatsAnyDeadline) {
  const test::Ensemble e = test::constant_ensemble(3);
  const core::SpeedList list = e.list();
  core::PartitionServer server({.threads = 1});
  server.serve(list, 55555);  // warm the cache
  for (int i = 0; i < 3; ++i)
    (void)server.serve_slo(list, 60000 + i, {}, {60.0});  // train estimator
  core::Slo tight;
  tight.deadline_s = 1e-9;
  const core::ServeResult r = server.serve_slo(list, 55555, {}, tight);
  EXPECT_EQ(r.status, core::ServeStatus::Ok) << "cached answers are free";
  EXPECT_EQ(r.result.distribution.total(), 55555);
}

TEST(ServeSlo, PlainServeIsOfferedAdmittedAndTrainsOnMissesOnly) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::PartitionServer server({.threads = 1});
  ASSERT_EQ(server.predicted_delay(core::Priority::Normal), 0.0);
  (void)server.serve(list, 200000);  // miss: solved, a service-time sample
  core::SloStats s = expect_invariant(server);
  EXPECT_EQ(s.offered, 1);
  EXPECT_EQ(s.admitted, 1);
  const double trained = server.predicted_delay(core::Priority::Normal);
  EXPECT_GT(trained, 0.0) << "a serve() miss is an estimator sample";
  (void)server.serve(list, 200000);  // hit: answered by the probe
  s = expect_invariant(server);
  EXPECT_EQ(s.offered, 2);
  EXPECT_EQ(s.admitted, 2);
  EXPECT_EQ(server.predicted_delay(core::Priority::Normal), trained)
      << "a cache hit is no estimator sample";
  (void)server.serve(list, 201000);  // near miss: solved again
  EXPECT_NE(server.predicted_delay(core::Priority::Normal), trained);
}

TEST(ServeSlo, InvariantCoversMixedServeServeSloAndSubmitTraffic) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::PartitionServer server({.threads = 2});
  core::Slo tight;
  tight.deadline_s = 1e-9;
  core::StepTrace trace;
  core::PartitionPolicy traced;
  traced.observer = trace.observer();
  int requests = 0;
  for (int i = 0; i < 4; ++i) {
    const std::int64_t n = 100000 + 1000 * (i % 2);  // misses, then hits
    (void)server.serve(list, n);
    (void)server.serve(list, n + 7, traced);  // uncacheable
    (void)server.serve_slo(list, n + 11, {}, {60.0});
    (void)server.serve_slo(list, n + 13);  // no deadline
    (void)server.serve_slo(list, 500000 + i, {}, tight);  // degraded
    (void)server.submit({list, n + 19, {}, {}}).get();
    (void)server.submit({list, 600000 + i, {}, tight}).get();  // degraded
    requests += 7;
  }
  const core::SloStats s = expect_invariant(server);
  EXPECT_EQ(s.offered, requests);
  EXPECT_EQ(s.degraded, 8);
  EXPECT_EQ(s.admitted, requests - 8);
  const core::CacheStats c = server.cache_stats();
  EXPECT_EQ(c.hits + c.misses + c.uncacheable, s.admitted);
  EXPECT_EQ(c.uncacheable, 4);
}

TEST(ServeSlo, HugeAndInfiniteBudgetsNeverExpire) {
  // A budget beyond the clock's range (~9.2e9 s of nanoseconds) saturates
  // to "never" instead of overflowing into a deadline in the past.
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::PartitionServer server({.threads = 1});
  std::int64_t n = 300000;
  for (const double budget :
       {1e12, std::numeric_limits<double>::infinity()}) {
    core::Slo slo;
    slo.deadline_s = budget;
    const core::ServeResult queued = server.submit({list, ++n, {}, slo}).get();
    EXPECT_EQ(queued.status, core::ServeStatus::Ok) << budget;
    EXPECT_TRUE(queued.deadline_met) << budget;
    EXPECT_EQ(queued.result.distribution.total(), n);
    const core::ServeResult inline_ = server.serve_slo(list, ++n, {}, slo);
    EXPECT_EQ(inline_.status, core::ServeStatus::Ok) << budget;
    EXPECT_TRUE(inline_.deadline_met) << budget;
    EXPECT_EQ(inline_.result.distribution.total(), n);
  }
  const core::SloStats s = expect_invariant(server);
  EXPECT_EQ(s.admitted, 4);
  EXPECT_EQ(s.shed_expired, 0);
  EXPECT_EQ(s.deadline_misses, 0);
}

// ---------------------------------------------------------------------------
// submit / run_batch
// ---------------------------------------------------------------------------

TEST(SubmitSlo, AccountingInvariantHoldsUnderQueuePressure) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::ServerOptions opts;
  opts.threads = 1;
  opts.cache_capacity = 0;  // every request must solve: real queue pressure
  opts.max_queue_depth = 2;
  core::PartitionServer server(opts);
  constexpr int kRequests = 64;
  std::vector<std::future<core::ServeResult>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    core::BatchRequest req{list, 100000 + 101LL * i, {}, {}};
    req.slo.priority = static_cast<core::Priority>(i % 3);
    req.slo.allow_degraded = false;  // make sheds visible as sheds
    futures.push_back(server.submit(std::move(req)));
  }
  int ok = 0, shed = 0;
  for (auto& f : futures) {
    const core::ServeResult r = f.get();
    if (r.status == core::ServeStatus::Ok) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, core::ServeStatus::Shed);
      EXPECT_EQ(r.shed_reason, core::ShedReason::QueueFull);
      ++shed;
    }
  }
  const core::SloStats s = expect_invariant(server);
  EXPECT_EQ(s.offered, kRequests);
  EXPECT_EQ(s.admitted, ok);
  EXPECT_EQ(s.shed_queue_full, shed);
  // A depth-2 queue in front of one worker cannot absorb 64 requests.
  EXPECT_GT(shed, 0);
  EXPECT_GT(ok, 0);
}

TEST(SubmitSlo, DisplacementPrefersLowestPriorityLatestDeadline) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::ServerOptions opts;
  opts.threads = 1;
  opts.cache_capacity = 0;
  opts.max_queue_depth = 1;
  core::PartitionServer server(opts);
  // Occupy the worker, then the depth-1 queue, with Low requests; a High
  // submission must displace the queued Low one, not be rejected itself.
  std::vector<std::future<core::ServeResult>> lows;
  for (int i = 0; i < 6; ++i) {
    core::BatchRequest req{list, 400000 + 7919LL * i, {}, {}};
    req.slo.priority = core::Priority::Low;
    req.slo.allow_degraded = false;
    lows.push_back(server.submit(std::move(req)));
  }
  core::BatchRequest high{list, 999999, {}, {}};
  high.slo.priority = core::Priority::High;
  high.slo.allow_degraded = false;
  core::ServeResult hr = server.submit(std::move(high)).get();
  EXPECT_EQ(hr.status, core::ServeStatus::Ok)
      << "a High request must never lose a full queue to Low requests";
  int low_shed = 0;
  for (auto& f : lows)
    if (f.get().status == core::ServeStatus::Shed) ++low_shed;
  EXPECT_GT(low_shed, 0);
  expect_invariant(server);
}

TEST(RunBatch, ResultsMapOneToOneWithShedEntriesMarkedInPlace) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::ServerOptions opts;
  opts.threads = 1;
  opts.cache_capacity = 0;
  opts.max_queue_depth = 2;
  core::PartitionServer server(opts);
  constexpr int kRequests = 32;
  std::vector<core::BatchRequest> batch;
  std::vector<std::int64_t> ns;
  for (int i = 0; i < kRequests; ++i) {
    const std::int64_t n = 50000 + 997LL * i;  // all distinct: n identifies
    ns.push_back(n);                           // the request
    core::BatchRequest req{list, n, {}, {}};
    req.slo.allow_degraded = false;
    batch.push_back(std::move(req));
  }
  const std::vector<core::ServeResult> results =
      server.run_batch(std::move(batch));
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    const core::ServeResult& r = results[static_cast<std::size_t>(i)];
    if (r.answered()) {
      // Distinct n per request: the total proves result i answers request i.
      EXPECT_EQ(r.result.distribution.total(), ns[static_cast<std::size_t>(i)])
          << "result " << i << " answers a different request";
    } else {
      EXPECT_EQ(r.shed_reason, core::ShedReason::QueueFull);
      EXPECT_TRUE(r.result.distribution.counts.empty());
    }
  }
  expect_invariant(server);
}

// ---------------------------------------------------------------------------
// Hint-store bounds
// ---------------------------------------------------------------------------

TEST(HintStore, FingerprintChurnEvictsLruAndCounts) {
  core::ServerOptions opts;
  opts.threads = 1;
  opts.hint_capacity = 16;  // one hint per shard
  core::PartitionServer server(opts);
  // 48 distinct fingerprints (distinct constant speeds) through 16 shards:
  // the store must stay bounded and count its evictions.
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned;
  for (int i = 0; i < 48; ++i) {
    owned.clear();
    for (int p = 0; p < 3; ++p)
      owned.push_back(std::make_shared<core::ConstantSpeed>(
          100.0 + i * 10.0 + p * 3.0, 1e9));
    core::SpeedList list;
    for (const auto& f : owned) list.push_back(f.get());
    (void)server.serve(list, 10000 + i);
  }
  const core::CacheStats s = server.cache_stats();
  EXPECT_LE(s.hint_entries, 16u);
  EXPECT_GT(s.hint_evictions, 0);
  EXPECT_GE(obs::metrics().counter(obs::names::kServerHintsEvicted).value(),
            s.hint_evictions);
}

/// A Generic model whose next intersect() stalls once: a host stall in
/// the middle of a solve.
class StallOnceSpeed final : public core::SpeedFunction {
 public:
  explicit StallOnceSpeed(std::chrono::milliseconds stall) : stall_(stall) {}
  double speed(double x) const override { return 90.0 / (1.0 + x / 1e7); }
  double max_size() const override { return 1e9; }
  double intersect(double slope,
                   std::int64_t* saturations = nullptr) const override {
    if (armed_.exchange(false)) std::this_thread::sleep_for(stall_);
    return SpeedFunction::intersect(slope, saturations);
  }
  void arm() { armed_ = true; }

 private:
  std::chrono::milliseconds stall_;
  mutable std::atomic<bool> armed_{false};
};

TEST(SubmitSlo, OneSlowSampleDoesNotLockAdmissionOut) {
  // One 175 ms request without a deadline lifts the service estimate far
  // above a 10 ms deadline. Rejected requests never refresh the estimate,
  // so without the decay on rejection every later miss with that deadline
  // was degraded for good.
  StallOnceSpeed stall(175ms);
  const core::ConstantSpeed a(100.0, 1e9), b(150.0, 1e9), c(220.0, 1e9);
  const core::SpeedList list{&stall, &a, &b, &c};
  core::PartitionServer server({.threads = 1});
  stall.arm();
  ASSERT_EQ(server.submit({list, 100000, {}, {}}).get().status,
            core::ServeStatus::Ok);
  ASSERT_GT(server.predicted_delay(core::Priority::Normal), 0.150);

  constexpr int kMisses = 2000;
  int first_admitted = -1;
  int admitted = 0;
  for (int i = 0; i < kMisses; ++i) {
    core::BatchRequest req{list, 100001 + i, {}, {}};
    req.slo.deadline_s = 0.010;
    const core::ServeResult r = server.submit(std::move(req)).get();
    if (r.status != core::ServeStatus::Ok) continue;
    ++admitted;
    if (first_admitted < 0) first_admitted = i;
  }
  // 175 ms * 0.8^13 < 10 ms: the 14th miss is admitted (a few spare
  // rejections absorb a stall that ran long).
  ASSERT_GE(first_admitted, 0) << "admission locked out";
  EXPECT_LE(first_admitted, 16);
  EXPECT_GT(admitted, kMisses / 2);
  const core::SloStats s = expect_invariant(server);
  EXPECT_EQ(s.offered, kMisses + 1);
}

TEST(ServeWalks, EachRequestWalksItsModelsAtMostTwice) {
  // compiled.classify_walks counts compile() + fingerprint_of() calls,
  // each one pass over a request's models.
  const obs::Counter& walks =
      obs::metrics().counter(obs::names::kCompiledClassifyWalks);
  const auto walks_of = [&walks](const auto& request) {
    const std::int64_t before = walks.value();
    request();
    return walks.value() - before;
  };
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::PartitionServer server({.threads = 1});

  EXPECT_EQ(walks_of([&] { (void)core::partition(list, 123457); }), 1)
      << "cold solve";
  EXPECT_LE(walks_of([&] { (void)server.serve(list, 200000); }), 2)
      << "serve() miss";
  EXPECT_EQ(walks_of([&] { (void)server.serve(list, 200000); }), 1)
      << "serve() hit";
  EXPECT_EQ(walks_of([&] {
              (void)server.submit({list, 200000, {}, {}}).get();
            }),
            1)
      << "submit() hit";
  EXPECT_LE(walks_of([&] {
              (void)server.submit({list, 201000, {}, {}}).get();
            }),
            2)
      << "submit() near miss";
  EXPECT_LE(walks_of([&] {
              (void)server.serve_slo(list, 202000, {}, {60.0});
            }),
            2)
      << "serve_slo() near miss";
  core::Slo tight;
  tight.deadline_s = 1e-9;
  core::ServeResult degraded;
  EXPECT_EQ(walks_of([&] {
              degraded = server.submit({list, 203000, {}, tight}).get();
            }),
            1)
      << "submit() rejected at admission, degraded";
  EXPECT_EQ(degraded.status, core::ServeStatus::Degraded);
  EXPECT_EQ(walks_of([&] {
              degraded = server.serve_slo(list, 204000, {}, tight);
            }),
            1)
      << "serve_slo() rejected at admission, degraded";
  EXPECT_EQ(degraded.status, core::ServeStatus::Degraded);
  expect_invariant(server);

  // Caching off: the request is compiled once and solved on that model.
  core::PartitionServer uncached({.threads = 1, .cache_capacity = 0});
  EXPECT_EQ(walks_of([&] { (void)uncached.serve(list, 205000); }), 1)
      << "serve() with cache_capacity = 0";
  // bounded whose bounds never bind: its only round reuses the request's
  // compiled model.
  core::PartitionPolicy bounded;
  bounded.algorithm = core::kAlgorithmBounded;
  const core::PartitionResult unbound = core::partition(list, 206000, bounded);
  for (std::size_t i = 0; i < list.size(); ++i)
    ASSERT_LT(unbound.distribution.counts[i],
              static_cast<std::int64_t>(std::ceil(list[i]->max_size())));
  EXPECT_LE(walks_of([&] { (void)server.serve(list, 206000, bounded); }), 2)
      << "serve() bounded miss";
}

// ---------------------------------------------------------------------------
// drain
// ---------------------------------------------------------------------------

TEST(Drain, TimeoutShedsQueuedWorkAndServerStaysUsable) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::ServerOptions opts;
  opts.threads = 1;
  opts.cache_capacity = 0;
  core::PartitionServer server(opts);
  std::vector<std::future<core::ServeResult>> futures;
  for (int i = 0; i < 32; ++i) {
    core::BatchRequest req{list, 300000 + 1009LL * i, {}, {}};
    req.slo.allow_degraded = false;
    futures.push_back(server.submit(std::move(req)));
  }
  // A zero-ish timeout cannot drain 32 solves through one worker: the
  // leftovers are shed, every future is fulfilled, nothing hangs.
  const bool drained = server.drain(1us);
  int answered = 0, shed = 0;
  for (auto& f : futures) {
    const core::ServeResult r = f.get();
    (r.status == core::ServeStatus::Shed ? shed : answered) += 1;
    if (r.status == core::ServeStatus::Shed) {
      EXPECT_EQ(r.shed_reason, core::ShedReason::Shutdown);
    }
  }
  if (!drained) {
    EXPECT_GT(shed, 0);
  }
  EXPECT_EQ(answered + shed, 32);
  // The server accepts and completes new work after a timed-out drain.
  const core::ServeResult after = server.submit({list, 4242, {}, {}}).get();
  EXPECT_EQ(after.status, core::ServeStatus::Ok);
  EXPECT_EQ(after.result.distribution.total(), 4242);
  EXPECT_TRUE(server.drain(30s));
  // A timeout beyond the clock's range waits without overflowing it.
  EXPECT_TRUE(server.drain(std::chrono::nanoseconds::max()));
  expect_invariant(server);
}

}  // namespace
}  // namespace fpm
