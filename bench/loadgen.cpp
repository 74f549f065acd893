// Open-loop load generator for the SLO-aware PartitionServer
// (core/server.hpp): Poisson and bursty arrivals, Zipf-popular model
// fingerprints, a configurable deadline/priority mix, and two phases —
// sustainable load, then 2x-capacity overload — driven open-loop (arrivals
// never wait for completions, like real traffic).
//
// The run self-calibrates: a short closed-loop warmup measures the mean
// service time (its wall time over its call count), capacity = threads /
// service_time, and the two phases
// offer `--load1` (default 0.8) and `--load2` (default 2.0) times that.
// Every outcome is collected and written to BENCH_loadgen.json: per-phase
// offered/admitted/degraded/shed accounting, goodput (answers meeting
// their deadline per second), latency percentiles, and a 100 ms completion
// trajectory. Degraded answers are sampled during the run and re-checked
// afterwards against a cold exact solve: the reported error bound must
// dominate the true relative makespan error.
//
// `--gate` turns the run into a CI check (exit 1 on violation):
//   1. accounting is exact in every phase: offered == admitted + degraded
//      + shed, with offered equal to the submitted request count;
//   2. overload goodput >= 80% of sustainable goodput (the server sheds
//      instead of queue-collapsing);
//   3. sustainable-phase p99 latency meets the request deadline;
//   4. every sampled degraded answer's bound dominates its true error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/fpm.hpp"
#include "core/server.hpp"
#include "core/slo.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace fpm;
using Clock = std::chrono::steady_clock;

struct Config {
  unsigned threads = 0;           // 0 = hardware_concurrency
  double phase_s = 1.0;           // duration of each phase
  double deadline_ms = 20.0;      // per-request completion budget
  double load1 = 0.8;             // sustainable phase, x capacity
  double load2 = 2.0;             // overload phase, x capacity
  int fingerprints = 32;          // Zipf universe of distinct model lists
  double zipf_s = 1.1;            // popularity skew
  double max_rate = 250000.0;     // offered-rate ceiling (requests/s)
  std::uint64_t seed = 42;
  bool gate = false;
  std::string out = "BENCH_loadgen.json";
};

/// One model list of the fingerprint universe (owning).
struct Workload {
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned;
  core::SpeedList list;
  std::int64_t base_n = 0;
};

std::vector<Workload> make_workloads(int count) {
  std::vector<Workload> w(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    Workload& wk = w[static_cast<std::size_t>(k)];
    const double scale = 1.0 + 0.07 * k;
    for (int i = 0; i < 6; ++i) {
      wk.owned.push_back(std::make_shared<core::PowerDecaySpeed>(
          (90.0 + 60.0 * i) * scale, 2e7 * (1.0 + i), 0.8 + 0.3 * (i % 3),
          1e9));
    }
    for (const auto& f : wk.owned) wk.list.push_back(f.get());
    wk.base_n = 1000000 + 7919LL * k;
  }
  return w;
}

/// Zipf CDF over ranks 0..K-1 with exponent s.
std::vector<double> zipf_cdf(int count, double s) {
  std::vector<double> cdf(static_cast<std::size_t>(count));
  double total = 0.0;
  for (int i = 0; i < count; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[static_cast<std::size_t>(i)] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

struct DegradedSample {
  int workload = 0;
  std::int64_t n = 0;
  std::vector<std::int64_t> counts;
  double bound = 0.0;
};

struct PhaseReport {
  std::string name;
  std::string arrivals;
  double offered_rate = 0.0;  // requests/s targeted
  std::int64_t submitted = 0;
  core::SloStats stats;  // deltas for this phase
  std::int64_t on_time = 0;
  double goodput = 0.0;  // on-time answers / phase duration
  double p50_ms = 0.0, p99_ms = 0.0;
  std::vector<std::int64_t> traj_completed;  // per 100 ms bucket
  std::vector<std::int64_t> traj_on_time;
  std::vector<std::int64_t> traj_shed;
};

core::SloStats delta(const core::SloStats& now, const core::SloStats& then) {
  core::SloStats d;
  d.offered = now.offered - then.offered;
  d.admitted = now.admitted - then.admitted;
  d.degraded = now.degraded - then.degraded;
  d.shed = now.shed - then.shed;
  d.shed_admission = now.shed_admission - then.shed_admission;
  d.shed_queue_full = now.shed_queue_full - then.shed_queue_full;
  d.shed_expired = now.shed_expired - then.shed_expired;
  d.shed_shutdown = now.shed_shutdown - then.shed_shutdown;
  d.deadline_misses = now.deadline_misses - then.deadline_misses;
  return d;
}

double percentile(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[idx];
}

/// Runs one open-loop phase at `rate` requests/s. `bursty` modulates the
/// Poisson process with a 200 ms on/off cycle (3x for a quarter of the
/// period, 1/3x for the rest — same average, much deeper queues).
PhaseReport run_phase(core::PartitionServer& server,
                      const std::vector<Workload>& workloads,
                      const std::vector<double>& cdf, const Config& cfg,
                      double rate, bool bursty, const std::string& name,
                      std::vector<DegradedSample>& degraded_samples) {
  PhaseReport report;
  report.name = name;
  report.arrivals = bursty ? "bursty" : "poisson";
  report.offered_rate = rate;
  const std::size_t buckets =
      static_cast<std::size_t>(cfg.phase_s / 0.1) + 20;
  report.traj_completed.assign(buckets, 0);
  report.traj_on_time.assign(buckets, 0);
  report.traj_shed.assign(buckets, 0);

  const core::SloStats before = server.slo_stats();

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::future<core::ServeResult>> pending;
  bool done_submitting = false;

  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<std::size_t>(rate * cfg.phase_s) + 16);
  std::int64_t on_time = 0, completed = 0;

  const Clock::time_point start = Clock::now();
  // Collector: drains futures in submission order so in-flight memory stays
  // bounded no matter how long the run is.
  std::thread collector([&] {
    for (;;) {
      std::future<core::ServeResult> f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done_submitting || !pending.empty(); });
        if (pending.empty()) return;
        f = std::move(pending.front());
        pending.pop_front();
      }
      const core::ServeResult r = f.get();
      const auto bucket = std::min(
          buckets - 1,
          static_cast<std::size_t>(
              std::chrono::duration<double>(Clock::now() - start).count() /
              0.1));
      ++completed;
      ++report.traj_completed[bucket];
      if (r.status == core::ServeStatus::Shed) {
        ++report.traj_shed[bucket];
      } else {
        latencies_ms.push_back(r.latency_s * 1e3);
        if (r.deadline_met) {
          ++on_time;
          ++report.traj_on_time[bucket];
        }
      }
    }
  });

  std::mt19937_64 rng(cfg.seed ^ std::hash<std::string>{}(name));
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::exponential_distribution<double> exp_base(1.0);
  double next_arrival = 0.0;  // seconds from phase start
  std::int64_t submitted = 0;
  // Sample degraded answers inline (collector side would need the request
  // context); keep a bounded reservoir per phase.
  constexpr std::size_t kMaxDegradedSamples = 64;

  while (next_arrival < cfg.phase_s) {
    // Sleep until the next arrival is due, in sub-millisecond hops.
    for (;;) {
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (elapsed >= next_arrival) break;
      std::this_thread::sleep_for(std::chrono::microseconds(
          std::min<std::int64_t>(
              500, static_cast<std::int64_t>((next_arrival - elapsed) * 1e6) +
                       1)));
    }
    // Submit everything due by now (open loop: the schedule never waits).
    double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    while (next_arrival <= elapsed && next_arrival < cfg.phase_s) {
      // Compose one request from the mix.
      const double zu = uni(rng);
      const int k = static_cast<int>(
          std::lower_bound(cdf.begin(), cdf.end(), zu) - cdf.begin());
      const Workload& w = workloads[static_cast<std::size_t>(
          std::min<int>(k, static_cast<int>(workloads.size()) - 1))];
      core::BatchRequest req;
      req.speeds = w.list;
      // 30% of requests ask one of 8 hot quantized sizes (result-cache
      // hits); the rest drift n across a wide range — near-miss traffic
      // that must solve, warm-started off the fingerprint hint. The solves
      // are what the overload phase actually runs out of.
      req.n = uni(rng) < 0.3
                  ? w.base_n + 1000 * static_cast<std::int64_t>(rng() % 8)
                  : w.base_n + static_cast<std::int64_t>(rng() % 250000);
      req.slo.deadline_s = cfg.deadline_ms * 1e-3;
      const double pu = uni(rng);
      req.slo.priority = pu < 0.2   ? core::Priority::Low
                         : pu < 0.8 ? core::Priority::Normal
                                    : core::Priority::High;
      req.slo.allow_degraded = uni(rng) >= 0.1;  // 10% refuse degradation
      const int wk = static_cast<int>(&w - workloads.data());
      const std::int64_t req_n = req.n;

      std::future<core::ServeResult> f = server.submit(std::move(req));
      ++submitted;
      // Peek degraded outcomes that are already resolved (admission-time
      // degradation resolves synchronously inside submit()).
      if (degraded_samples.size() < kMaxDegradedSamples &&
          f.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
        core::ServeResult r = f.get();
        if (r.status == core::ServeStatus::Degraded) {
          degraded_samples.push_back({wk, req_n, r.result.distribution.counts,
                                      r.error_bound});
        }
        // Re-wrap the consumed result so the collector still sees it.
        std::promise<core::ServeResult> relay;
        f = relay.get_future();
        relay.set_value(std::move(r));
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        pending.push_back(std::move(f));
      }
      cv.notify_one();

      // Schedule the next arrival.
      double r = rate;
      if (bursty) {
        const double phase = std::fmod(next_arrival, 0.2);
        r = rate * (phase < 0.05 ? 3.0 : 1.0 / 3.0);
      }
      next_arrival += exp_base(rng) / std::max(r, 1.0);
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    }
  }

  // Let queued work finish (or be shed by the server's own expiry logic),
  // then stop the collector.
  server.drain(std::chrono::seconds(30));
  {
    std::lock_guard<std::mutex> lock(mu);
    done_submitting = true;
  }
  cv.notify_all();
  collector.join();

  report.submitted = submitted;
  report.stats = delta(server.slo_stats(), before);
  report.on_time = on_time;
  report.goodput = static_cast<double>(on_time) / cfg.phase_s;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  report.p50_ms = percentile(latencies_ms, 0.50);
  report.p99_ms = percentile(latencies_ms, 0.99);
  (void)completed;
  return report;
}

void emit_phase_json(std::ofstream& json, const PhaseReport& r, bool last) {
  const core::SloStats& s = r.stats;
  json << "    {\"name\": \"" << r.name << "\", \"arrivals\": \""
       << r.arrivals << "\", \"offered_rate\": " << r.offered_rate
       << ", \"submitted\": " << r.submitted << ",\n"
       << "     \"offered\": " << s.offered << ", \"admitted\": " << s.admitted
       << ", \"degraded\": " << s.degraded << ", \"shed\": " << s.shed
       << ",\n"
       << "     \"shed_admission\": " << s.shed_admission
       << ", \"shed_queue_full\": " << s.shed_queue_full
       << ", \"shed_expired\": " << s.shed_expired
       << ", \"shed_shutdown\": " << s.shed_shutdown << ",\n"
       << "     \"deadline_misses\": " << s.deadline_misses
       << ", \"on_time\": " << r.on_time << ", \"goodput\": " << r.goodput
       << ", \"p50_ms\": " << r.p50_ms << ", \"p99_ms\": " << r.p99_ms
       << ",\n     \"trajectory_100ms\": {\"completed\": [";
  for (std::size_t i = 0; i < r.traj_completed.size(); ++i)
    json << (i ? ", " : "") << r.traj_completed[i];
  json << "], \"on_time\": [";
  for (std::size_t i = 0; i < r.traj_on_time.size(); ++i)
    json << (i ? ", " : "") << r.traj_on_time[i];
  json << "], \"shed\": [";
  for (std::size_t i = 0; i < r.traj_shed.size(); ++i)
    json << (i ? ", " : "") << r.traj_shed[i];
  json << "]}}" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const auto has_value = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (std::strcmp(argv[i], "--gate") == 0) cfg.gate = true;
    else if (has_value("--threads")) cfg.threads = static_cast<unsigned>(std::atoi(argv[++i]));
    else if (has_value("--phase-s")) cfg.phase_s = std::atof(argv[++i]);
    else if (has_value("--deadline-ms")) cfg.deadline_ms = std::atof(argv[++i]);
    else if (has_value("--load1")) cfg.load1 = std::atof(argv[++i]);
    else if (has_value("--load2")) cfg.load2 = std::atof(argv[++i]);
    else if (has_value("--fingerprints")) cfg.fingerprints = std::atoi(argv[++i]);
    else if (has_value("--zipf")) cfg.zipf_s = std::atof(argv[++i]);
    else if (has_value("--max-rate")) cfg.max_rate = std::atof(argv[++i]);
    else if (has_value("--seed")) cfg.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    else if (has_value("--out")) cfg.out = argv[++i];
    else {
      std::cerr << "usage: loadgen [--gate] [--threads N] [--phase-s S]\n"
                << "  [--deadline-ms MS] [--load1 X] [--load2 X]\n"
                << "  [--fingerprints K] [--zipf S] [--max-rate R]\n"
                << "  [--seed N] [--out FILE]\n";
      return 2;
    }
  }
  if (cfg.threads == 0)
    cfg.threads = std::max(2u, std::thread::hardware_concurrency() / 2);

  const std::vector<Workload> workloads = make_workloads(cfg.fingerprints);
  const std::vector<double> cdf = zipf_cdf(cfg.fingerprints, cfg.zipf_s);

  core::ServerOptions opts;
  opts.threads = cfg.threads;
  opts.cache_capacity = 4096;
  opts.hint_capacity = 4096;
  opts.max_queue_depth = static_cast<std::size_t>(cfg.threads) * 64;
  core::PartitionServer server(opts);

  // Seed the hint store (and the result cache) with one exact solve per
  // fingerprint, so degradation has a previous solution to rescale from
  // the first overloaded second. These serve() calls count in slo_stats()
  // (and train the estimator); every phase reports deltas past them.
  for (const Workload& w : workloads) (void)server.serve(w.list, w.base_n);

  // Closed-loop calibration: mean service time of a cache-missing solve.
  // Every call is a synchronous serve_slo on this thread, so the loop's
  // own wall time over its call count is that mean — a measurement over
  // the whole window, not the estimator's view of its last few samples.
  const double service_s = [&] {
    std::mt19937_64 rng(cfg.seed);
    const Clock::time_point t0 = Clock::now();
    int calls = 0;
    double elapsed = 0.0;
    while (elapsed < 0.25) {
      const Workload& w = workloads[rng() % workloads.size()];
      (void)server.serve_slo(w.list,
                             w.base_n + 17 + static_cast<std::int64_t>(
                                                 rng() % 100000),
                             {}, {60.0});
      ++calls;
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    }
    return elapsed / calls;
  }();
  const double capacity =
      std::min(cfg.max_rate, static_cast<double>(cfg.threads) / service_s);

  std::vector<DegradedSample> degraded_samples;
  std::vector<PhaseReport> phases;
  phases.push_back(run_phase(server, workloads, cdf, cfg,
                             cfg.load1 * capacity, /*bursty=*/false,
                             "sustainable", degraded_samples));
  phases.push_back(run_phase(server, workloads, cdf, cfg,
                             cfg.load2 * capacity, /*bursty=*/true,
                             "overload", degraded_samples));

  // Post-run verification: every sampled degraded answer's bound must
  // dominate its true relative makespan error against a cold exact solve.
  int bound_violations = 0;
  for (const DegradedSample& s : degraded_samples) {
    const Workload& w = workloads[static_cast<std::size_t>(s.workload)];
    const core::PartitionResult exact = core::partition(w.list, s.n);
    const double exact_ms = core::makespan(w.list, exact.distribution);
    core::Distribution got;
    got.counts = s.counts;
    const double got_ms = core::makespan(w.list, got);
    const double true_error = got_ms / exact_ms - 1.0;
    if (s.bound < true_error - 1e-9) ++bound_violations;
  }

  std::vector<std::string> failures;
  for (const PhaseReport& r : phases) {
    const core::SloStats& s = r.stats;
    if (s.offered != r.submitted)
      failures.push_back(r.name + ": offered " + std::to_string(s.offered) +
                         " != submitted " + std::to_string(r.submitted));
    if (s.offered != s.admitted + s.degraded + s.shed)
      failures.push_back(r.name + ": offered " + std::to_string(s.offered) +
                         " != admitted+degraded+shed " +
                         std::to_string(s.admitted + s.degraded + s.shed));
  }
  const double goodput_ratio =
      phases[0].goodput > 0.0 ? phases[1].goodput / phases[0].goodput : 0.0;
  if (goodput_ratio < 0.8)
    failures.push_back("overload goodput " + std::to_string(phases[1].goodput) +
                       " < 80% of sustainable " +
                       std::to_string(phases[0].goodput));
  if (phases[0].p99_ms > cfg.deadline_ms)
    failures.push_back("sustainable p99 " + std::to_string(phases[0].p99_ms) +
                       " ms exceeds the " + std::to_string(cfg.deadline_ms) +
                       " ms deadline");
  if (bound_violations > 0)
    failures.push_back(std::to_string(bound_violations) +
                       " degraded answers broke their error bound");

  std::ofstream json(cfg.out);
  json << "{\n  \"bench\": \"loadgen\",\n"
       << "  \"threads\": " << cfg.threads << ",\n"
       << "  \"deadline_ms\": " << cfg.deadline_ms << ",\n"
       << "  \"service_estimate_s\": " << service_s << ",\n"
       << "  \"capacity_rps\": " << capacity << ",\n"
       << "  \"goodput_ratio\": " << goodput_ratio << ",\n"
       << "  \"degraded_samples\": " << degraded_samples.size() << ",\n"
       << "  \"degraded_bound_violations\": " << bound_violations << ",\n"
       << "  \"phases\": [\n";
  for (std::size_t i = 0; i < phases.size(); ++i)
    emit_phase_json(json, phases[i], i + 1 == phases.size());
  json << "  ],\n  \"metrics\": " << obs::metrics().to_json() << "}\n";
  json.close();

  for (const PhaseReport& r : phases) {
    const core::SloStats& s = r.stats;
    std::cout << r.name << " (" << r.arrivals << ", "
              << static_cast<std::int64_t>(r.offered_rate)
              << " rps offered): offered=" << s.offered
              << " admitted=" << s.admitted << " degraded=" << s.degraded
              << " shed=" << s.shed << " (adm " << s.shed_admission << "/qf "
              << s.shed_queue_full << "/exp " << s.shed_expired << "/shut "
              << s.shed_shutdown << ")"
              << " goodput=" << static_cast<std::int64_t>(r.goodput)
              << "/s p50=" << r.p50_ms << "ms p99=" << r.p99_ms << "ms\n";
  }
  std::cout << "goodput ratio (overload/sustainable) = " << goodput_ratio
            << ", degraded samples checked = " << degraded_samples.size()
            << ", bound violations = " << bound_violations << "\n"
            << "wrote " << cfg.out << "\n";

  if (!failures.empty()) {
    for (const std::string& f : failures) std::cerr << "GATE: " << f << "\n";
    if (cfg.gate) return 1;
  } else if (cfg.gate) {
    std::cout << "loadgen gate: all checks passed\n";
  }
  return 0;
}
