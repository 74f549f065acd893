#include "runners.hpp"

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/compiled.hpp"
#include "core/finetune.hpp"
#include "core/policy.hpp"
#include "core/server.hpp"
#include "obs/metrics.hpp"
#include "trace.hpp"
#include "util/stats.hpp"
#include "verify.hpp"

namespace fpmbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_p90", "ms"},
    {"throughput_per_s", "1/s"},
    {"goodput_per_s", "1/s"},
    {"deadline_met_frac", "frac"},
    {"cpu_ms_per_op", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"compiled.fingerprint_us", "us"},
    {"compiled.compile_us", "us"},
    {"compiled.sweep_us", "us"},
    {"compiled.simd_entry_frac", "frac"},
    {"compiled.parallel_sweep_frac", "frac"},
    {"partition.bracket_us", "us"},
    {"partition.solve_us", "us"},
    {"partition.search_us", "us"},
    {"partition.accounted_frac", "frac"},
    {"partition.sweeps", "count"},
    {"partition.intersect_solves", "count"},
    {"partition.search_speed_evals", "count"},
    {"partition.warm_hit_frac", "frac"},
    {"partition.bracket_saturations", "count"},
    {"finetune.us", "us"},
    {"finetune.deficit", "count"},
    {"server.key_us", "us"},
    {"server.cache_hit_frac", "frac"},
    {"server.evictions_per_op", "count"},
    {"server.hint_evictions_per_op", "count"},
    {"server.repeat_ms_p50", "ms"},
    {"server.near_miss_ms_p50", "ms"},
    {"server.near_miss_ms_p99", "ms"},
    {"server.queue_delay_est_ms", "ms"},
    {"server.queue_depth_mean", "count"},
    {"slo.admitted_frac", "frac"},
    {"slo.degraded_frac", "frac"},
    {"slo.shed_frac", "frac"},
    {"client.lag_ms_p99", "ms"},
    {"trace.overhead_frac", "frac"},
};

namespace {

namespace core = fpm::core;
namespace names = fpm::obs::names;

constexpr int kSetupRepeats = 5;
constexpr double kInf = std::numeric_limits<double>::infinity();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double micros(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e6;
}

/// User plus system CPU time of the whole process (every thread).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// CPU time of the calling thread.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  return fpm::util::percentile(xs, q);
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : fpm::util::mean(xs);
}

double frac(double part, double whole) { return whole > 0 ? part / whole : 0; }

/// Runs `setup` kSetupRepeats times and returns the median wall time; the
/// state the last repeat built is the one the window uses.
double timed_setup(const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(times);
}

/// Deltas of process-wide obs counters over the timed window.
class CounterWindow {
 public:
  CounterWindow() {
    for (const char* name : kNames) start_[name] = read(name);
  }
  std::int64_t delta(const char* name) const {
    return read(name) - start_.at(name);
  }

 private:
  static std::int64_t read(const char* name) {
    return fpm::obs::metrics().counter(name).value();
  }
  static constexpr const char* kNames[] = {
      names::kPartitionBatchSimdEntries, names::kPartitionBatchScalarEntries,
      names::kPartitionBatchParallelSweeps, names::kServerCacheHits,
      names::kServerCacheMisses, names::kServerCacheUncacheable,
      "partition.invocations.combined"};
  std::map<std::string, std::int64_t> start_;
};

/// Per-solve engine counters of the answers the window received.
struct SolveCounts {
  std::vector<double> sweeps, intersect_solves, search_speed_evals;
  std::int64_t solves = 0, warm_hits = 0, saturations = 0;

  void add(const core::PartitionStats& s) {
    sweeps.push_back(s.iterations);
    intersect_solves.push_back(static_cast<double>(s.intersect_solves));
    search_speed_evals.push_back(static_cast<double>(s.search_speed_evals));
    ++solves;
    if (s.warmstart == core::WarmStart::Hit) ++warm_hits;
    saturations += s.bracket_saturations;
  }
};

class Reporter {
 public:
  explicit Reporter(RunReport& report) : report_(report) {}

  void fail(const std::string& what) {
    ++report_.ops_failed;
    if (report_.failures.size() < 8) report_.failures.push_back(what);
  }
  /// Checks an accounting invariant; a violation counts as one failure.
  void expect(bool holds, const std::string& what) {
    if (!holds) fail("invariant violated: " + what);
  }
  void set(const std::string& name, double value) { values_[name] = value; }

  /// Emits the metrics of `specs` in order; each must have been set.
  void finish(const std::vector<MetricSpec>& specs) {
    for (const MetricSpec& spec : specs) {
      const auto it = values_.find(spec.name);
      if (it == values_.end())
        throw std::logic_error(std::string("metric not measured: ") +
                               spec.name);
      report_.metrics.push_back({spec.name, it->second, spec.unit});
    }
  }

 private:
  RunReport& report_;
  std::map<std::string, double> values_;
};

/// The timed window cut into equal intervals of about one second. Rates,
/// CPU per op and the tail latency are medians over the intervals, so a
/// burst of noise from other tenants of the host in one second moves a
/// run's figures less.
class Intervals {
 public:
  struct Slot {
    std::vector<double> latency_ms;  ///< +inf: no verified answer
    std::int64_t full = 0;           ///< verified full answers
    std::int64_t on_time = 0;        ///< ... within the latency limit
    double busy_s = 0.0;             ///< time the rates are taken over
    double cpu_s = 0.0;
  };

  explicit Intervals(double seconds)
      : slots_(static_cast<std::size_t>(std::max(1.0, std::round(seconds)))),
        length_s_(seconds / static_cast<double>(slots_.size())) {}

  /// The interval holding `offset_s` seconds into the window.
  Slot& at(double offset_s) {
    const auto i = static_cast<std::size_t>(std::max(0.0, offset_s / length_s_));
    return slots_[std::min(i, slots_.size() - 1)];
  }
  double length_s() const noexcept { return length_s_; }
  std::vector<Slot>& slots() noexcept { return slots_; }
  const std::vector<Slot>& slots() const noexcept { return slots_; }

  /// Records one op; a failed one (no verified answer) has latency +inf.
  void record(Slot& slot, double latency_ms, bool full, double limit_ms) {
    slot.latency_ms.push_back(latency_ms);
    slot.full += full;
    slot.on_time += full && latency_ms <= limit_ms;
  }

 private:
  std::vector<Slot> slots_;
  double length_s_;
};

/// End-to-end metrics shared by every workload. The median latency and the
/// share of ops meeting the limit are taken over the whole window; p90,
/// throughput, goodput and CPU per op are medians over the intervals. An op
/// without a verified answer enters with latency +inf (a percentile landing
/// on one reports the run length).
void report_end_to_end(Reporter& out, double setup_s, const Intervals& window,
                       double run_ms) {
  std::vector<double> all, p90, throughput, goodput, cpu;
  std::int64_t on_time = 0;
  for (const Intervals::Slot& s : window.slots()) {
    if (s.latency_ms.empty()) continue;
    all.insert(all.end(), s.latency_ms.begin(), s.latency_ms.end());
    on_time += s.on_time;
    std::vector<double> sorted = s.latency_ms;
    std::sort(sorted.begin(), sorted.end());
    p90.push_back(sorted[static_cast<std::size_t>(std::ceil(
                      0.90 * static_cast<double>(sorted.size()))) -
                  1]);
    throughput.push_back(frac(static_cast<double>(s.full), s.busy_s));
    goodput.push_back(frac(static_cast<double>(s.on_time), s.busy_s));
    cpu.push_back(s.cpu_s * 1e3 / static_cast<double>(s.latency_ms.size()));
  }
  std::sort(all.begin(), all.end());
  const auto finite = [&](double v) { return std::isfinite(v) ? v : run_ms; };
  out.set("setup_s", setup_s);
  out.set("latency_ms_p50",
          all.empty() ? 0.0 : finite(all[(all.size() - 1) / 2]));
  // The median of a list holding +inf is taken by rank, not interpolated.
  std::sort(p90.begin(), p90.end());
  out.set("latency_ms_p90",
          p90.empty() ? 0.0 : finite(p90[(p90.size() - 1) / 2]));
  out.set("throughput_per_s", median(throughput));
  out.set("goodput_per_s", median(goodput));
  out.set("deadline_met_frac", frac(static_cast<double>(on_time),
                                    static_cast<double>(all.size())));
  out.set("cpu_ms_per_op", median(cpu));
  out.set("peak_rss_mb", peak_rss_mb());
}

void report_solve_counts(Reporter& out, const SolveCounts& c) {
  out.set("partition.sweeps", median(c.sweeps));
  out.set("partition.intersect_solves", median(c.intersect_solves));
  out.set("partition.search_speed_evals", median(c.search_speed_evals));
  out.set("partition.warm_hit_frac",
          frac(static_cast<double>(c.warm_hits), static_cast<double>(c.solves)));
  out.set("partition.bracket_saturations",
          static_cast<double>(c.saturations));
}

/// Vector-path share and parallel-sweep share of intersect_all over the
/// window (each sweep adds p entries to simd + scalar).
void report_batch_counters(Reporter& out, const CounterWindow& w,
                           std::size_t p) {
  const auto simd =
      static_cast<double>(w.delta(names::kPartitionBatchSimdEntries));
  const auto scalar =
      static_cast<double>(w.delta(names::kPartitionBatchScalarEntries));
  const double sweeps = (simd + scalar) / static_cast<double>(p);
  out.set("compiled.simd_entry_frac", frac(simd, simd + scalar));
  out.set("compiled.parallel_sweep_frac",
          frac(static_cast<double>(
                   w.delta(names::kPartitionBatchParallelSweeps)),
               sweeps));
}

// ------------------------------------------------------------------ probe

struct ProbeSample {
  const core::SpeedList* list;
  std::int64_t n;
};

/// The isolated per-layer calls of the traced run, made after the timed
/// window on a sample of the workload's own requests: each layer's public
/// function is called alone and timed. With `server_probe`, a fresh
/// PartitionServer also answers a cold miss, a repeat and a near miss for
/// every sample (for workloads whose window has no such traffic).
void probe_layers(const std::vector<ProbeSample>& samples, bool server_probe,
                  Tracer& tracer, Reporter& out, std::string& notes) {
  std::vector<double> fingerprint, compile, key, bracket, solve, sweep,
      finetune, deficit, search, accounted, sweeps, repeat, near_miss,
      queue_est;
  core::PartitionServer server(core::ServerOptions{.threads = 1});
  const core::PartitionPolicy policy{};
  std::uint64_t req = 0;
  for (const ProbeSample& s : samples) {
    const core::SpeedList& list = *s.list;
    const Tracer::Id root = tracer.open("probe", Clock::now(), req);
    const auto timed = [&](const char* span, std::vector<double>& into,
                           const auto& call) {
      const Clock::time_point t0 = Clock::now();
      call();
      const Clock::time_point t1 = Clock::now();
      tracer.add(span, t0, t1, req, root);
      into.push_back(micros(t0, t1));
    };
    std::uint64_t fp = 0;
    timed("CompiledSpeedList::fingerprint_of", fingerprint,
          [&] { fp = core::CompiledSpeedList::fingerprint_of(list); });
    std::optional<core::CompiledSpeedList> compiled;
    timed("CompiledSpeedList::compile", compile,
          [&] { compiled.emplace(core::CompiledSpeedList::compile(list)); });
    if (compiled->fingerprint() != fp)
      out.fail("fingerprint_of disagrees with compile().fingerprint()");
    std::string k;
    timed("PartitionCache::make_key", key,
          [&] { k = core::PartitionCache::make_key(list, s.n, policy); });
    timed("detect_bracket", bracket, [&] {
      (void)core::detect_bracket(*compiled, s.n, nullptr);
    });
    core::PartitionResult result;
    timed("core::partition", solve,
          [&] { result = core::partition(list, s.n, policy); });
    if (const Violation v = check_full(list, s.n, result.distribution);
        !v.empty())
      out.fail("probe solve: " + v);
    std::vector<double> sizes(list.size());
    timed("CompiledSpeedList::intersect_all", sweep, [&] {
      compiled->intersect_all(result.stats.final_slope, sizes);
    });
    std::int64_t floor_sum = 0;
    for (const double x : sizes)
      floor_sum += static_cast<std::int64_t>(std::floor(x));
    deficit.push_back(static_cast<double>(s.n - floor_sum));
    timed("fine_tune", finetune, [&] {
      (void)core::fine_tune(*compiled, s.n, sizes, nullptr);
    });
    search.push_back(solve.back() - compile.back() - bracket.back() -
                     finetune.back());
    sweeps.push_back(result.stats.iterations);
    accounted.push_back((compile.back() + bracket.back() +
                         result.stats.iterations * sweep.back() +
                         finetune.back()) /
                        solve.back());
    if (server_probe) {
      const auto serve = [&](const char* span, std::int64_t n,
                             std::vector<double>* into) {
        const Clock::time_point t0 = Clock::now();
        const core::PartitionResult r = server.serve(list, n);
        const Clock::time_point t1 = Clock::now();
        tracer.add(span, t0, t1, req, root);
        if (into) into->push_back(micros(t0, t1) / 1e3);
        if (const Violation v = check_full(list, n, r.distribution);
            !v.empty())
          out.fail("probe serve: " + v);
      };
      serve("PartitionServer::serve(miss)", s.n, nullptr);
      serve("PartitionServer::serve(repeat)", s.n, &repeat);
      const auto drifted = static_cast<std::int64_t>(
          std::llround(static_cast<double>(s.n) * 1.01));
      serve("PartitionServer::serve(near_miss)", drifted, &near_miss);
      const Clock::time_point t0 = Clock::now();
      const core::ServeResult r =
          server.submit({list, drifted + 1, policy, core::Slo{}}).get();
      tracer.add("PartitionServer::submit", t0, Clock::now(), req, root);
      if (const Violation v =
              check_full(list, drifted + 1, r.result.distribution);
          !v.empty())
        out.fail("probe submit: " + v);
      queue_est.push_back(server.predicted_delay(core::Priority::Normal) *
                          1e3);
    }
    tracer.close(root, Clock::now());
    ++req;
  }
  out.set("compiled.fingerprint_us", median(fingerprint));
  out.set("compiled.compile_us", median(compile));
  out.set("compiled.sweep_us", median(sweep));
  out.set("partition.bracket_us", median(bracket));
  out.set("partition.solve_us", median(solve));
  out.set("partition.search_us", median(search));
  out.set("partition.accounted_frac", median(accounted));
  out.set("finetune.us", median(finetune));
  out.set("finetune.deficit", median(deficit));
  out.set("server.key_us", median(key));
  if (server_probe) {
    out.set("server.repeat_ms_p50", median(repeat));
    out.set("server.near_miss_ms_p50", median(near_miss));
    out.set("server.near_miss_ms_p99", percentile(near_miss, 99));
    out.set("server.queue_delay_est_ms", median(queue_est));
  }

  char buf[512];
  const double c = median(compile), b = median(bracket), w = median(sweep),
               f = median(finetune), n = median(sweeps), t = median(solve);
  std::snprintf(buf, sizeof buf,
                "probe (%zu samples, medians): partition.solve_us %.1f; "
                "compile %.1f + bracket %.1f + %.0f sweeps x %.1f + "
                "fine-tune %.1f = %.1f us, %.1f%% of the solve\n",
                samples.size(), t, c, b, n, w, f, c + b + n * w + f,
                100.0 * (c + b + n * w + f) / t);
  notes += buf;
}

/// Probe sample size: enough for stable medians, bounded in time by the
/// costliest workload (p=4096 solves).
std::size_t probe_samples(bool smoke) { return smoke ? 2 : 16; }

// ------------------------------------------------------------ closed loops

struct ClosedLoop {
  explicit ClosedLoop(double seconds) : window(seconds) {}
  Intervals window;
  std::vector<double> gap_ms;  ///< client time between a return and the next call
  double busy_s = 0.0;
  std::int64_t ops = 0, full_answers = 0;
  SolveCounts counts;
};

/// One client: next(i) builds request i (untimed), call(request) is timed
/// and returns the PartitionResult, check(request, result) verifies it
/// (untimed). Throughput and CPU are taken over the timed calls only.
template <class Next, class Call, class Check>
ClosedLoop closed_loop(double seconds, double limit_ms, Tracer& tracer,
                       const char* span, Next next, Call call, Check check) {
  ClosedLoop loop(seconds);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point prev_return{};
  for (std::uint64_t i = 0; Clock::now() < end; ++i) {
    const auto request = next(i);
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    const core::PartitionResult result = call(request);
    const Clock::time_point t1 = Clock::now();
    Intervals::Slot& slot = loop.window.at(seconds_between(start, t0));
    slot.cpu_s += cpu_seconds() - cpu0;
    slot.busy_s += seconds_between(t0, t1);
    loop.busy_s += seconds_between(t0, t1);
    if (i > 0) loop.gap_ms.push_back(micros(prev_return, t0) / 1e3);
    tracer.add(span, t0, t1, i);
    const Clock::time_point tv = tracer.enabled() ? Clock::now() : t1;
    const bool ok = check(request, result);
    if (tracer.enabled()) tracer.add("verify", tv, Clock::now(), i);
    loop.window.record(slot, ok ? micros(t0, t1) / 1e3 : kInf, ok, limit_ms);
    ++loop.ops;
    if (ok) {
      ++loop.full_answers;
      loop.counts.add(result.stats);
    }
    prev_return = t1;
  }
  return loop;
}

void report_closed_loop_serving(Reporter& out, const ClosedLoop& loop) {
  out.set("client.lag_ms_p99", percentile(loop.gap_ms, 99));
  out.set("server.queue_depth_mean", 0.0);
  out.set("slo.admitted_frac", frac(static_cast<double>(loop.full_answers),
                                    static_cast<double>(loop.ops)));
  out.set("slo.degraded_frac", 0.0);
  out.set("slo.shed_frac", 0.0);
}

// ---------------------------------------------------------------- cold_p4096

void run_cold(const RunOptions& o, Tracer& tracer, Reporter& out,
              RunReport& report) {
  const ColdConfig cfg = cold_config(o.smoke);
  std::optional<core::SyntheticFleet> fleet;
  core::SpeedList list;
  const double setup_s = timed_setup([&] {
    fleet.reset();
    fleet.emplace(core::make_synthetic_fleet(cfg.p, sub_seed(o.seed, 0)));
    list = fleet->list();
    SizeStream warm(sub_seed(o.seed, 6), cfg.n_lo, cfg.n_hi);
    for (int i = 0; i < 3; ++i) (void)core::partition(list, warm.next());
  });

  const CounterWindow window;
  SizeStream sizes(sub_seed(o.seed, 5), cfg.n_lo, cfg.n_hi);
  const ClosedLoop loop = closed_loop(
      o.seconds, cfg.limit_ms, tracer, "core::partition",
      [&](std::uint64_t) { return sizes.next(); },
      [&](std::int64_t n) { return core::partition(list, n); },
      [&](std::int64_t n, const core::PartitionResult& r) {
        const Violation v = check_full(list, n, r.distribution);
        if (!v.empty()) out.fail("n=" + std::to_string(n) + ": " + v);
        return v.empty();
      });
  report.ops = loop.ops;
  out.expect(window.delta("partition.invocations.combined") == report.ops,
             "partition.invocations.combined delta == ops");

  if (!tracer.enabled()) {
    report_end_to_end(out, setup_s, loop.window, o.seconds * 1e3);
    return;
  }
  report_batch_counters(out, window, cfg.p);
  report_solve_counts(out, loop.counts);
  report_closed_loop_serving(out, loop);
  out.set("server.cache_hit_frac", 0.0);
  out.set("server.evictions_per_op", 0.0);
  out.set("server.hint_evictions_per_op", 0.0);
  out.set("trace.overhead_frac",
          frac(static_cast<double>(tracer.size()) * Tracer::span_cost_s(),
               loop.busy_s));
  SizeStream again(sub_seed(o.seed, 5), cfg.n_lo, cfg.n_hi);
  std::vector<ProbeSample> samples;
  for (std::size_t i = 0; i < probe_samples(o.smoke); ++i)
    samples.push_back({&list, again.next()});
  probe_layers(samples, /*server_probe=*/true, tracer, out, report.notes);
}

// ----------------------------------------------------- churn_piecewise_p2048

void run_churn(const RunOptions& o, Tracer& tracer, Reporter& out,
               RunReport& report) {
  const ChurnConfig cfg = churn_config(o.smoke);
  std::optional<ChurnInputs> inputs;
  std::unique_ptr<core::PartitionServer> server;
  const double setup_s = timed_setup([&] {
    server.reset();
    inputs.reset();
    inputs.emplace(make_churn_inputs(cfg, o.seed));
    server = std::make_unique<core::PartitionServer>(core::ServerOptions{
        .threads = 1,
        .cache_capacity = cfg.cache_capacity,
        .hint_capacity = cfg.hint_capacity});
    ChurnStream warm(cfg, sub_seed(o.seed, 7));
    for (int i = 0; i < 3; ++i) {
      const ChurnRequest r = warm.next();
      (void)server->serve(inputs->lists[r.fleet], r.n);
    }
  });

  const core::CacheStats cache0 = server->cache_stats();
  const core::SloStats slo0 = server->slo_stats();
  const CounterWindow window;
  ChurnStream stream(cfg, o.seed);
  const ClosedLoop loop = closed_loop(
      o.seconds, cfg.limit_ms, tracer, "PartitionServer::serve",
      [&](std::uint64_t) { return stream.next(); },
      [&](const ChurnRequest& r) {
        return server->serve(inputs->lists[r.fleet], r.n);
      },
      [&](const ChurnRequest& r, const core::PartitionResult& result) {
        const Violation v =
            check_full(inputs->lists[r.fleet], r.n, result.distribution);
        if (!v.empty())
          out.fail("fleet " + std::to_string(r.fleet) + " n=" +
                   std::to_string(r.n) + ": " + v);
        return v.empty();
      });
  report.ops = loop.ops;
  const core::CacheStats cache1 = server->cache_stats();
  const core::SloStats slo1 = server->slo_stats();
  out.expect((cache1.hits - cache0.hits) + (cache1.misses - cache0.misses) +
                     (cache1.uncacheable - cache0.uncacheable) ==
                 report.ops,
             "hits + misses + uncacheable == serves");
  out.expect(slo1.offered - slo0.offered ==
                 (slo1.admitted - slo0.admitted) +
                     (slo1.degraded - slo0.degraded) +
                     (slo1.shed - slo0.shed),
             "offered == admitted + degraded + shed");

  if (!tracer.enabled()) {
    report_end_to_end(out, setup_s, loop.window, o.seconds * 1e3);
    return;
  }
  const auto ops = static_cast<double>(report.ops);
  report_batch_counters(out, window, cfg.p);
  report_solve_counts(out, loop.counts);
  report_closed_loop_serving(out, loop);
  out.set("server.cache_hit_frac",
          frac(static_cast<double>(cache1.hits - cache0.hits), ops));
  out.set("server.evictions_per_op",
          frac(static_cast<double>(cache1.evictions - cache0.evictions), ops));
  out.set("server.hint_evictions_per_op",
          frac(static_cast<double>(cache1.hint_evictions -
                                   cache0.hint_evictions),
               ops));
  out.set("trace.overhead_frac",
          frac(static_cast<double>(tracer.size()) * Tracer::span_cost_s(),
               loop.busy_s));
  ChurnStream again(cfg, o.seed);
  std::vector<ProbeSample> samples;
  for (std::size_t i = 0; i < probe_samples(o.smoke); ++i) {
    const ChurnRequest r = again.next();
    samples.push_back({&inputs->lists[r.fleet], r.n});
  }
  probe_layers(samples, /*server_probe=*/true, tracer, out, report.notes);
}

// ----------------------------------------------------------- serve_zipf_p256

void run_zipf(const RunOptions& o, Tracer& tracer, Reporter& out,
              RunReport& report) {
  const ZipfConfig cfg = zipf_config(o.smoke);
  // The generator is one thread; the server gets the rest of the cores.
  const unsigned workers =
      std::max(1u, std::thread::hardware_concurrency() - 1);

  std::optional<ZipfInputs> inputs;
  std::unique_ptr<core::PartitionServer> server;
  const double setup_s = timed_setup([&] {
    server.reset();
    inputs.reset();
    inputs.emplace(make_zipf_inputs(cfg, o.seed));
    server = std::make_unique<core::PartitionServer>(
        core::ServerOptions{.threads = workers});
    // Warm-up: every hot (fleet, n) is solved once, so repeats hit.
    for (std::size_t f = 0; f < cfg.fleets; ++f)
      for (const std::int64_t n : inputs->hot_n[f])
        (void)server->serve(inputs->lists[f], n);
  });
  const std::vector<ZipfRequest> schedule =
      make_zipf_schedule(cfg, *inputs, o.seed, o.seconds);

  // A hit returns exactly the answer stored for its (fleet, n): the first
  // answer per key is fully checked, later ones must equal it (a different
  // answer is fully checked in turn).
  std::unordered_map<std::uint64_t, std::vector<std::int64_t>> checked;
  const auto verify_full = [&](const ZipfRequest& r,
                               const core::Distribution& d) -> Violation {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(r.fleet) << 48) ^
        static_cast<std::uint64_t>(r.n);
    const auto it = checked.find(key);
    if (it != checked.end() && it->second == d.counts) return {};
    Violation v = check_full(inputs->lists[r.fleet], r.n, d);
    if (v.empty() && r.repeat) checked[key] = d.counts;
    return v;
  };

  struct Pending {
    std::future<core::ServeResult> future;
    std::size_t index;
    double lag_s;
    Tracer::Id span;
  };
  std::deque<Pending> pending;
  Intervals intervals(o.seconds);
  std::vector<double> lag_ms, repeat_ms, near_miss_ms, queue_est_ms,
      queue_depth;
  lag_ms.reserve(schedule.size());
  std::int64_t ok = 0, degraded = 0, shed = 0;
  // Generator-thread CPU spent inside submit(): the only part of that
  // thread's time charged to the server (not its spinning or checking).
  double submit_cpu_s = 0.0;
  SolveCounts counts;
  const double deadline_s = cfg.deadline_ms / 1e3;

  const auto harvest = [&](Pending& p, Clock::time_point window_start) {
    const ZipfRequest& r = schedule[p.index];
    const core::ServeResult res = p.future.get();
    const double total_ms = (p.lag_s + res.latency_s) * 1e3;
    Violation v;
    double latency_ms = kInf;
    switch (res.status) {
      case core::ServeStatus::Ok:
        ++ok;
        v = verify_full(r, res.result.distribution);
        if (v.empty()) {
          latency_ms = total_ms;
          (r.repeat ? repeat_ms : near_miss_ms).push_back(total_ms);
          if (!r.repeat) counts.add(res.result.stats);
        }
        break;
      case core::ServeStatus::Degraded:
        ++degraded;
        v = check_degraded(inputs->lists[r.fleet], r.n,
                           res.result.distribution, res.error_bound);
        if (v.empty()) latency_ms = total_ms;
        break;
      case core::ServeStatus::Shed:
        ++shed;
        break;
    }
    intervals.record(intervals.at(r.at_s), latency_ms,
                     res.status == core::ServeStatus::Ok && v.empty(),
                     cfg.deadline_ms);
    if (!v.empty())
      out.fail("request " + std::to_string(p.index) + " fleet " +
               std::to_string(r.fleet) + " n=" + std::to_string(r.n) + ": " +
               v);
    tracer.close(p.span,
                 window_start +
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(r.at_s + total_ms / 1e3)));
  };

  // Wake precisely from the coarse sleeps below: the default 50 us timer
  // slack would show up as generator lag.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  fpm::obs::Gauge& depth_gauge =
      fpm::obs::metrics().gauge(names::kServerQueueDepth);
  const core::CacheStats cache0 = server->cache_stats();
  const core::SloStats slo0 = server->slo_stats();
  const CounterWindow window;
  // Server CPU, read at each interval boundary: the process's CPU less the
  // generator thread's own time outside submit().
  const auto server_cpu = [&] {
    return cpu_seconds() - thread_cpu_seconds() + submit_cpu_s;
  };
  std::vector<double> cpu_marks{server_cpu()};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  Clock::time_point next_sample = start;
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const ZipfRequest& r = schedule[i];
    const Clock::time_point due = at(r.at_s);
    while (r.at_s >= static_cast<double>(cpu_marks.size()) *
                          intervals.length_s())
      cpu_marks.push_back(server_cpu());
    // Idle until the send time: sample the queue every 100 ms, check
    // finished answers while at least 100 us remain, and spin through the
    // last millisecond — waking a sleeping thread on a virtual machine can
    // take longer than the gap between two sends.
    for (Clock::time_point now = Clock::now(); now < due; now = Clock::now()) {
      if (now >= next_sample) {
        queue_est_ms.push_back(
            server->predicted_delay(core::Priority::Normal) * 1e3);
        queue_depth.push_back(static_cast<double>(depth_gauge.value()));
        next_sample += std::chrono::milliseconds(100);
      } else if (!pending.empty() && due - now > std::chrono::microseconds(100) &&
                 pending.front().future.wait_for(std::chrono::seconds(0)) ==
                     std::future_status::ready) {
        harvest(pending.front(), start);
        pending.pop_front();
      } else if (due - now > std::chrono::milliseconds(1)) {
        std::this_thread::sleep_until(due - std::chrono::microseconds(500));
      }
    }
    const Clock::time_point sent = Clock::now();
    const double lag_s = seconds_between(due, sent);
    lag_ms.push_back(lag_s * 1e3);
    const Tracer::Id span = tracer.open("request", due, i, Tracer::kNone,
                                        /*async=*/true);
    const double cpu0 = thread_cpu_seconds();
    std::future<core::ServeResult> future = server->submit(
        {inputs->lists[r.fleet], r.n, {}, core::Slo{.deadline_s = deadline_s}});
    submit_cpu_s += thread_cpu_seconds() - cpu0;
    if (tracer.enabled())
      tracer.add("PartitionServer::submit", sent, Clock::now(), i, span);
    pending.push_back({std::move(future), i, lag_s, span});
  }
  for (Pending& p : pending) harvest(p, start);
  pending.clear();
  const double elapsed_s = seconds_between(start, Clock::now());
  while (cpu_marks.size() <= intervals.slots().size())
    cpu_marks.push_back(server_cpu());
  for (std::size_t k = 0; k < intervals.slots().size(); ++k) {
    intervals.slots()[k].busy_s = intervals.length_s();
    intervals.slots()[k].cpu_s = cpu_marks[k + 1] - cpu_marks[k];
  }
  report.ops = static_cast<std::int64_t>(schedule.size());

  const core::CacheStats cache1 = server->cache_stats();
  const core::SloStats slo1 = server->slo_stats();
  const std::int64_t offered = slo1.offered - slo0.offered;
  const std::int64_t admitted = slo1.admitted - slo0.admitted;
  out.expect(offered == report.ops, "offered == requests sent");
  out.expect(offered == admitted + (slo1.degraded - slo0.degraded) +
                            (slo1.shed - slo0.shed),
             "offered == admitted + degraded + shed");
  out.expect(admitted == ok && slo1.degraded - slo0.degraded == degraded &&
                 slo1.shed - slo0.shed == shed,
             "server outcome counts == answers received");
  // Every admitted request is served once: inline from the cache in
  // submit(), or by a worker's serve().
  out.expect(window.delta(names::kServerCacheHits) +
                     window.delta(names::kServerCacheMisses) +
                     window.delta(names::kServerCacheUncacheable) ==
                 admitted,
             "hits + misses + uncacheable == serves");

  if (!tracer.enabled()) {
    report_end_to_end(out, setup_s, intervals, o.seconds * 1e3);
    return;
  }
  const auto ops = static_cast<double>(report.ops);
  report_batch_counters(out, window, cfg.p);
  report_solve_counts(out, counts);
  out.set("server.cache_hit_frac",
          frac(static_cast<double>(window.delta(names::kServerCacheHits)),
               ops));
  out.set("server.evictions_per_op",
          frac(static_cast<double>(cache1.evictions - cache0.evictions), ops));
  out.set("server.hint_evictions_per_op",
          frac(static_cast<double>(cache1.hint_evictions -
                                   cache0.hint_evictions),
               ops));
  out.set("server.repeat_ms_p50", median(repeat_ms));
  out.set("server.near_miss_ms_p50", median(near_miss_ms));
  out.set("server.near_miss_ms_p99", percentile(near_miss_ms, 99));
  out.set("server.queue_delay_est_ms", mean(queue_est_ms));
  out.set("server.queue_depth_mean", mean(queue_depth));
  out.set("slo.admitted_frac", frac(static_cast<double>(admitted), ops));
  out.set("slo.degraded_frac", frac(static_cast<double>(degraded), ops));
  out.set("slo.shed_frac", frac(static_cast<double>(shed), ops));
  out.set("client.lag_ms_p99", percentile(lag_ms, 99));
  out.set("trace.overhead_frac",
          frac(static_cast<double>(tracer.size()) * Tracer::span_cost_s(),
               elapsed_s));

  std::vector<ProbeSample> samples;
  for (std::size_t i = 0;
       i < schedule.size() && samples.size() < probe_samples(o.smoke); ++i)
    samples.push_back({&inputs->lists[schedule[i].fleet], schedule[i].n});
  probe_layers(samples, /*server_probe=*/false, tracer, out, report.notes);
}

}  // namespace

// Read from VmHWM: getrusage's ru_maxrss also keeps the peak of the process
// that forked and exec'd this one (the Python runner), which would swamp a
// small workload.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

// Freed heap goes back to the system first, so it does not stay resident
// and count towards the next workload's peak.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear)
    throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

RunReport run(const RunOptions& options) {
  RunReport report;
  Reporter out(report);
  Tracer tracer(options.trace);
  reset_peak_rss();
  switch (options.workload) {
    case Workload::ColdP4096:
      run_cold(options, tracer, out, report);
      break;
    case Workload::ServeZipfP256:
      run_zipf(options, tracer, out, report);
      break;
    case Workload::ChurnPiecewiseP2048:
      run_churn(options, tracer, out, report);
      break;
  }
  out.finish(options.trace ? kPerLayerMetrics : kEndToEndMetrics);
  if (options.trace) {
    report.layer_table = tracer.layer_table();
    if (!tracer.write_chrome_trace(options.trace_path,
                                   options.provenance_json))
      throw std::runtime_error("cannot write trace " + options.trace_path);
  }
  return report;
}

}  // namespace fpmbench
