#include "core/server.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <utility>

#include "core/compiled.hpp"

namespace fpm::core {
namespace {

/// Both LRU maps (results and hints) split into this many locked shards.
constexpr std::size_t kShards = 16;

using Clock = std::chrono::steady_clock;

void append_hex64(std::string& out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4)
    out.push_back(kDigits[(v >> shift) & 0xf]);
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// `from + budget`, saturating at time_point::max() instead of
/// overflowing the clock.
Clock::time_point saturating_add(Clock::time_point from,
                                 Clock::duration budget) {
  constexpr Clock::time_point kNever = Clock::time_point::max();
  return budget < kNever - from ? from + budget : kNever;
}

/// `slo`'s deadline for a request submitted at `submitted`:
/// time_point::max() when it has none, or when the budget does not fit the
/// clock (above ~9.2e9 s of nanoseconds, or infinite).
Clock::time_point deadline_after(Clock::time_point submitted, const Slo& slo) {
  const double budget_ns = slo.deadline_s * 1e9;
  if (!slo.has_deadline() || !(budget_ns < 0x1p63))
    return Clock::time_point::max();
  return saturating_add(submitted,
                        Clock::duration(static_cast<Clock::rep>(budget_ns)));
}

}  // namespace

// ---------------------------------------------------------------------------
// PartitionCache
// ---------------------------------------------------------------------------

std::string PartitionCache::make_key(const SpeedList& speeds, std::int64_t n,
                                     const PartitionPolicy& policy) {
  return make_key(CompiledSpeedList::fingerprint_of(speeds), n, policy);
}

std::string PartitionCache::make_key(std::uint64_t fingerprint, std::int64_t n,
                                     const PartitionPolicy& policy) {
  std::string key;
  key.reserve(64);
  append_hex64(key, fingerprint);
  key.push_back('|');
  key += std::to_string(n);
  key.push_back('|');
  key += format_policy(policy);
  // format_policy covers the algorithm id and options but not the capacity
  // bounds, which change the bounded algorithm's answer — append them.
  for (const std::int64_t b : policy.bounds) {
    key.push_back('|');
    key += std::to_string(b);
  }
  return key;
}

bool PartitionCache::lookup(const std::string& key, PartitionResult& out) {
  if (!lru_.find(key, [&out](const PartitionResult& stored) {
        out = stored;
        return true;
      }))
    return false;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool PartitionCache::insert(const std::string& key,
                            const PartitionResult& value) {
  misses_.fetch_add(1, std::memory_order_relaxed);
  // A concurrent miss on the same key may have stored the (identical)
  // result first; put() then refreshes its recency and keeps the incumbent.
  return lru_.put(
      key, [&value] { return value; }, [](const PartitionResult&) {});
}

CacheStats PartitionCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = lru_.evictions();
  s.entries = lru_.size();
  return s;
}

// ---------------------------------------------------------------------------
// PartitionServer: construction / teardown
// ---------------------------------------------------------------------------

PartitionServer::PartitionServer(ServerOptions options)
    : threads_(options.threads != 0
                   ? options.threads
                   : std::max(1u, std::thread::hardware_concurrency())),
      cache_(options.cache_capacity, kShards),
      metrics_{
          obs::metrics().histogram(obs::names::kServerServeLatency),
          obs::metrics().gauge(obs::names::kServerQueueDepth),
          obs::metrics().counter(obs::names::kServerCacheHits),
          obs::metrics().counter(obs::names::kServerCacheMisses),
          obs::metrics().counter(obs::names::kServerCacheEvictions),
          obs::metrics().counter(obs::names::kServerCacheUncacheable),
          obs::metrics().counter(obs::names::kServerHintsEvicted),
          obs::metrics().counter(obs::names::kServerSloOffered),
          obs::metrics().counter(obs::names::kServerSloAdmitted),
          obs::metrics().counter(obs::names::kServerSloDegraded),
          obs::metrics().counter(obs::names::kServerSloShedAdmission),
          obs::metrics().counter(obs::names::kServerSloShedQueueFull),
          obs::metrics().counter(obs::names::kServerSloShedExpired),
          obs::metrics().counter(obs::names::kServerSloShedShutdown),
          obs::metrics().counter(obs::names::kServerSloDeadlineMisses),
          obs::metrics().gauge(obs::names::kServerSloQueueDelayMicros)},
      warm_start_(options.warm_start),
      max_queue_depth_(options.max_queue_depth),
      solve_context_(options.solve_context),
      hints_(std::max<std::size_t>(1, options.hint_capacity), kShards) {
  workers_.reserve(threads_);
  for (unsigned i = 0; i < threads_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

PartitionServer::~PartitionServer() {
  std::vector<QueuedJob> orphans;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
    orphans = steal_queue_locked();
  }
  queue_cv_.notify_all();
  // Fulfil every stolen promise before joining: a destructor must never
  // leave a broken promise behind. No degradation here — teardown should
  // not spend solves; callers who want best-effort answers call drain().
  for (QueuedJob& job : orphans) {
    ServeResult outcome;
    outcome.status = ServeStatus::Shed;
    outcome.shed_reason = ShedReason::Shutdown;
    account(outcome, job.submitted, job.deadline);
    job.promise.set_value(std::move(outcome));
  }
  for (std::thread& t : workers_) t.join();
}

std::vector<PartitionServer::QueuedJob> PartitionServer::steal_queue_locked() {
  std::vector<QueuedJob> stolen;
  stolen.reserve(queue_.size());
  for (auto& [key, job] : queue_) stolen.push_back(std::move(job));
  if (!stolen.empty())
    metrics_.queue_depth.add(-static_cast<std::int64_t>(stolen.size()));
  queue_.clear();
  queued_per_class_.fill(0);
  return stolen;
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

void PartitionServer::worker_loop() {
  for (;;) {
    QueuedJob job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      const auto it = queue_.begin();
      job = std::move(it->second);
      const auto cls = static_cast<std::size_t>(job.request.slo.priority);
      queue_.erase(it);
      --queued_per_class_[cls];
      ++inflight_;
    }
    metrics_.queue_depth.add(-1);
    execute(std::move(job));
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --inflight_;
      if (inflight_ == 0 && queue_.empty()) idle_cv_.notify_all();
    }
  }
}

void PartitionServer::execute(QueuedJob job) {
  if (Clock::now() >= job.deadline) {
    // The deadline passed while the request waited in the queue; do not
    // spend a solve that is already late.
    degrade_or_shed(std::move(job), ShedReason::Expired);
    return;
  }
  ServeResult outcome;
  try {
    outcome = solve_admitted(job.request.speeds, job.request.n,
                             job.request.policy, job.key,
                             job.request.slo.priority, job.submitted,
                             job.deadline);
  } catch (...) {
    job.promise.set_exception(std::current_exception());
    return;
  }
  job.promise.set_value(std::move(outcome));
}

// ---------------------------------------------------------------------------
// Degradation and shedding
// ---------------------------------------------------------------------------

std::optional<ServeResult> PartitionServer::try_degrade(
    const BatchRequest& request, const KnownKey& key) {
  if (request.speeds.empty() || request.n < 1) return std::nullopt;
  // Observers expect a real search (their callbacks must fire per step);
  // bounded policies carry capacity constraints a rescaled distribution
  // would silently violate. Both fall through to a plain shed.
  if (request.policy.observer) return std::nullopt;
  if (request.policy.algorithm == kAlgorithmBounded) return std::nullopt;
  const std::optional<SlopeHint> prev = lookup_degradation(
      key ? key->fingerprint
          : CompiledSpeedList::fingerprint_of(request.speeds),
      request.speeds.size());
  if (!prev) return std::nullopt;
  std::optional<DegradedAnswer> answer =
      degraded_answer(request.speeds, request.n, prev->counts, prev->n);
  if (!answer) return std::nullopt;
  ServeResult outcome;
  outcome.status = ServeStatus::Degraded;
  outcome.result.distribution = std::move(answer->distribution);
  outcome.result.stats.algorithm = kAlgorithmDegraded;
  outcome.error_bound = answer->error_bound;
  return outcome;
}

ServeResult PartitionServer::resolve_shed(const BatchRequest& request,
                                          ShedReason reason,
                                          const KnownKey& key) {
  if (request.slo.allow_degraded) {
    if (std::optional<ServeResult> degraded = try_degrade(request, key)) {
      degraded->shed_reason = reason;  // what the approximation averted
      return *std::move(degraded);
    }
  }
  ServeResult outcome;
  outcome.status = ServeStatus::Shed;
  outcome.shed_reason = reason;
  return outcome;
}

void PartitionServer::degrade_or_shed(QueuedJob&& job, ShedReason reason) {
  ServeResult outcome = resolve_shed(job.request, reason, job.key);
  account(outcome, job.submitted, job.deadline);
  job.promise.set_value(std::move(outcome));
}

void PartitionServer::account(ServeResult& outcome,
                              Clock::time_point submitted,
                              Clock::time_point deadline) {
  const Clock::time_point now = Clock::now();
  outcome.latency_s = seconds_between(submitted, now);
  outcome.deadline_met = now <= deadline;  // max() when there is none
  switch (outcome.status) {
    case ServeStatus::Ok:
      slo_admitted_.fetch_add(1, std::memory_order_relaxed);
      metrics_.slo_admitted.add(1);
      metrics_.serve_latency.record(outcome.latency_s);
      break;
    case ServeStatus::Degraded:
      slo_degraded_.fetch_add(1, std::memory_order_relaxed);
      metrics_.slo_degraded.add(1);
      break;
    case ServeStatus::Shed:
      switch (outcome.shed_reason) {
        case ShedReason::Admission:
          slo_shed_admission_.fetch_add(1, std::memory_order_relaxed);
          metrics_.slo_shed_admission.add(1);
          break;
        case ShedReason::QueueFull:
          slo_shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
          metrics_.slo_shed_queue_full.add(1);
          break;
        case ShedReason::Expired:
          slo_shed_expired_.fetch_add(1, std::memory_order_relaxed);
          metrics_.slo_shed_expired.add(1);
          break;
        case ShedReason::Shutdown:
        case ShedReason::None:  // unreachable; bucket with shutdown
          slo_shed_shutdown_.fetch_add(1, std::memory_order_relaxed);
          metrics_.slo_shed_shutdown.add(1);
          break;
      }
      break;
  }
  if (outcome.answered() && !outcome.deadline_met) {
    slo_deadline_misses_.fetch_add(1, std::memory_order_relaxed);
    metrics_.slo_deadline_misses.add(1);
  }
}

// ---------------------------------------------------------------------------
// Hint store (warm starts + degradation source)
// ---------------------------------------------------------------------------

std::optional<PartitionHint> PartitionServer::lookup_hint(
    std::uint64_t fingerprint) {
  std::optional<PartitionHint> hint;
  hints_.find(fingerprint, [&](const SlopeHint& stored) {
    hint.emplace();
    hint->slope = stored.slope;
    hint->n = stored.n;
    hint->fingerprint = fingerprint;
    hint->baseline_iterations = stored.baseline_iterations;
    return true;
  });
  return hint;
}

std::optional<PartitionServer::SlopeHint> PartitionServer::lookup_degradation(
    std::uint64_t fingerprint, std::size_t p) {
  std::optional<SlopeHint> prev;
  hints_.find(fingerprint, [&](const SlopeHint& stored) {
    if (stored.counts.size() != p) return false;
    prev = stored;
    return true;
  });
  return prev;
}

void PartitionServer::update_hint(std::uint64_t fingerprint, std::int64_t n,
                                  const PartitionResult& result) {
  if (n <= 0) return;
  if (!std::isfinite(result.stats.final_slope) ||
      result.stats.final_slope <= 0.0)
    return;
  // The bounded algorithm reports the slope of its last residual round — a
  // sub-problem over the unclamped processors, not the full list — and its
  // clamped distribution is the wrong degradation source for unbounded
  // requests of the same models.
  if (result.stats.algorithm == kAlgorithmBounded) return;
  const bool evicted = hints_.put(
      fingerprint,
      [&] {
        return SlopeHint{result.stats.final_slope, n, result.stats.iterations,
                         result.distribution.counts};
      },
      [&](SlopeHint& hint) {
        hint.slope = result.stats.final_slope;
        hint.n = n;
        hint.counts = result.distribution.counts;
        // A warm run's low iteration count is not a cold baseline; keep the
        // last cold figure so iterations_saved keeps measuring warm vs cold.
        if (result.stats.warmstart != WarmStart::Hit)
          hint.baseline_iterations = result.stats.iterations;
      });
  if (evicted) metrics_.hint_evictions.add(1);
}

PartitionResult PartitionServer::partition_with_hint(
    const CompiledSpeedList& models, std::int64_t n,
    const PartitionPolicy& policy) {
  if (!warm_start_) return partition(models, n, policy, solve_context_);
  PartitionResult result;
  if (policy.hint) {
    // The caller brought their own hint; honour it untouched.
    result = partition(models, n, policy, solve_context_);
  } else {
    PartitionPolicy hinted = policy;
    hinted.hint = lookup_hint(models.fingerprint());
    result = partition(models, n, hinted, solve_context_);
  }
  update_hint(models.fingerprint(), n, result);
  return result;
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

std::optional<ServeResult> PartitionServer::probe(
    const SpeedList& speeds, std::int64_t n, const PartitionPolicy& policy,
    Clock::time_point submitted, Clock::time_point deadline, KnownKey& key) {
  // An observer is a side effect the caller expects on every call: a
  // cached answer would silently swallow the step trace. A disabled cache
  // has nothing to find. Neither needs a key.
  if (policy.observer || cache_.capacity() == 0) return std::nullopt;
  // Key via the allocation-free fingerprint: a hit must not pay for a
  // compilation it will never use.
  const std::uint64_t fingerprint = CompiledSpeedList::fingerprint_of(speeds);
  key = RequestKey{fingerprint,
                   PartitionCache::make_key(fingerprint, n, policy)};
  ServeResult outcome;
  if (!cache_.lookup(key->text, outcome.result)) return std::nullopt;
  metrics_.hits.add(1);
  outcome.status = ServeStatus::Ok;
  account(outcome, submitted, deadline);
  return outcome;
}

ServeResult PartitionServer::solve_admitted(
    const SpeedList& speeds, std::int64_t n, const PartitionPolicy& policy,
    const KnownKey& key, Priority priority, Clock::time_point submitted,
    Clock::time_point deadline) {
  const Clock::time_point start = Clock::now();
  ServeResult outcome;
  try {
    // Observers run cold: a hint would change the trace's bracket shape.
    // Everything else is compiled once here and solved on that model; a
    // near miss (fingerprint seen before under a different n) warm-starts
    // from the remembered slope.
    const CompiledSpeedList models = CompiledSpeedList::compile(speeds);
    outcome.result = policy.observer
                         ? partition(models, n, policy, solve_context_)
                         : partition_with_hint(models, n, policy);
  } catch (...) {
    // Engine rejections (unknown algorithm id, invalid policy) are caller
    // errors, not load: the request was admitted, and the error reaches the
    // caller exactly as the engine threw it.
    slo_admitted_.fetch_add(1, std::memory_order_relaxed);
    metrics_.slo_admitted.add(1);
    throw;
  }
  if (key) {
    metrics_.misses.add(1);
    if (cache_.insert(key->text, outcome.result)) metrics_.evictions.add(1);
  } else {
    // Counted so that hits + misses + uncacheable matches the full
    // answers. The slope hints are independent of result caching and stay
    // live.
    uncacheable_.fetch_add(1, std::memory_order_relaxed);
    metrics_.uncacheable.add(1);
  }
  estimator_.record(priority, seconds_between(start, Clock::now()));
  outcome.status = ServeStatus::Ok;
  account(outcome, submitted, deadline);
  return outcome;
}

PartitionResult PartitionServer::serve(const SpeedList& speeds, std::int64_t n,
                                       const PartitionPolicy& policy) {
  return serve_slo(speeds, n, policy, Slo{}).result;
}

ServeResult PartitionServer::serve_slo(const SpeedList& speeds,
                                       std::int64_t n,
                                       const PartitionPolicy& policy,
                                       Slo slo) {
  const Clock::time_point submitted = Clock::now();
  const Clock::time_point deadline = deadline_after(submitted, slo);
  slo_offered_.fetch_add(1, std::memory_order_relaxed);
  metrics_.slo_offered.add(1);

  KnownKey key;
  // A cache hit beats any deadline.
  if (std::optional<ServeResult> hit =
          probe(speeds, n, policy, submitted, deadline, key))
    return *std::move(hit);
  if (slo.has_deadline() &&
      estimator_.service_estimate(slo.priority) > slo.deadline_s) {
    // No queue here: the estimate alone rejected the request, and only
    // admitted requests refresh it — decay it so it cannot lock in.
    estimator_.decay(slo.priority);
    ServeResult outcome = resolve_shed(BatchRequest{speeds, n, policy, slo},
                                       ShedReason::Admission, key);
    account(outcome, submitted, deadline);
    return outcome;
  }
  return solve_admitted(speeds, n, policy, key, slo.priority, submitted,
                        deadline);
}

std::future<ServeResult> PartitionServer::submit(BatchRequest request) {
  QueuedJob job;
  job.submitted = Clock::now();
  job.deadline = deadline_after(job.submitted, request.slo);
  job.request = std::move(request);
  slo_offered_.fetch_add(1, std::memory_order_relaxed);
  metrics_.slo_offered.add(1);
  std::future<ServeResult> future = job.promise.get_future();
  const Priority priority = job.request.slo.priority;

  // A cached answer is microseconds: serve it inline whatever the queue.
  if (std::optional<ServeResult> hit =
          probe(job.request.speeds, job.request.n, job.request.policy,
                job.submitted, job.deadline, job.key)) {
    job.promise.set_value(*std::move(hit));
    return future;
  }

  ShedReason reject = ShedReason::None;  // None = enqueued
  std::optional<QueuedJob> victim;
  double wait_estimate = 0.0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      reject = ShedReason::Shutdown;
    } else {
      // Jobs this one must wait behind: everything at its class or above
      // (pessimistic within the class — it joins at the back of it).
      std::size_t ahead = 0;
      for (std::size_t cls = static_cast<std::size_t>(priority);
           cls < kPriorityClasses; ++cls)
        ahead += queued_per_class_[cls];
      wait_estimate = estimator_.queue_delay(priority, ahead, threads_);
      const double service = estimator_.service_estimate(priority);
      const double budget = job.request.slo.deadline_s;
      if (job.request.slo.has_deadline() && wait_estimate + service > budget) {
        reject = ShedReason::Admission;
        // Only admitted requests refresh the service estimate, so one slow
        // sample above the deadline would otherwise reject every later
        // request for good. When the estimate alone explains the rejection,
        // decay it: after a few rejections a request gets through and
        // records a real sample. Rejections caused by the queue ahead leave
        // it alone — those queued jobs will supply fresh samples.
        if (service > budget) estimator_.decay(priority);
      } else {
        const JobKey key{-static_cast<int>(priority), job.deadline,
                         next_seq_++};
        if (max_queue_depth_ != 0 && queue_.size() >= max_queue_depth_) {
          const auto worst = std::prev(queue_.end());
          if (key < worst->first) {
            // The incoming request outranks the queue's worst; displace it.
            auto node = queue_.extract(worst);
            victim = std::move(node.mapped());
            --queued_per_class_[static_cast<std::size_t>(
                victim->request.slo.priority)];
            queue_.emplace(key, std::move(job));
            ++queued_per_class_[static_cast<std::size_t>(priority)];
          } else {
            reject = ShedReason::QueueFull;  // incoming is the worst
          }
        } else {
          queue_.emplace(key, std::move(job));
          ++queued_per_class_[static_cast<std::size_t>(priority)];
        }
      }
    }
  }
  metrics_.slo_queue_delay_us.set(
      static_cast<std::int64_t>(wait_estimate * 1e6));

  if (reject != ShedReason::None) {
    degrade_or_shed(std::move(job), reject);
  } else if (victim) {
    // Net queue depth unchanged (one in, one out); the displaced job is
    // degraded or shed outside the lock.
    queue_cv_.notify_one();
    degrade_or_shed(std::move(*victim), ShedReason::QueueFull);
  } else {
    metrics_.queue_depth.add(1);
    queue_cv_.notify_one();
  }
  return future;
}

std::vector<ServeResult> PartitionServer::run_batch(
    std::vector<BatchRequest> requests) {
  std::vector<std::future<ServeResult>> futures;
  futures.reserve(requests.size());
  for (BatchRequest& req : requests) futures.push_back(submit(std::move(req)));
  std::vector<ServeResult> results;
  results.reserve(futures.size());
  // Drain every future before letting any exception unwind: the requests
  // borrow their SpeedFunction objects, and rethrowing while later tasks
  // are still running would free models a worker is reading. Waiting on
  // every future first guarantees the pool is done with the whole batch.
  // Result i answers request i; shed/degraded entries are marked in place.
  std::exception_ptr first_error;
  for (std::future<ServeResult>& f : futures) {
    try {
      results.push_back(f.get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      results.emplace_back();  // placeholder keeps the 1:1 index mapping
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

bool PartitionServer::drain(std::chrono::nanoseconds timeout) {
  const Clock::time_point deadline = saturating_add(Clock::now(), timeout);
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (idle_cv_.wait_until(lock, deadline, [this] {
          return queue_.empty() && inflight_ == 0;
        }))
      return true;
  }
  // Timed out: shed (or degrade) what is still queued, then wait for the
  // in-flight solves — workers never abandon a running request.
  std::vector<QueuedJob> leftovers;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftovers = steal_queue_locked();
  }
  for (QueuedJob& job : leftovers)
    degrade_or_shed(std::move(job), ShedReason::Shutdown);
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    idle_cv_.wait(lock,
                  [this] { return queue_.empty() && inflight_ == 0; });
  }
  return leftovers.empty();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

CacheStats PartitionServer::cache_stats() const {
  CacheStats s = cache_.stats();
  s.uncacheable = uncacheable_.load(std::memory_order_relaxed);
  s.hint_entries = hints_.size();
  s.hint_evictions = hints_.evictions();
  return s;
}

SloStats PartitionServer::slo_stats() const {
  SloStats s;
  s.offered = slo_offered_.load(std::memory_order_relaxed);
  s.admitted = slo_admitted_.load(std::memory_order_relaxed);
  s.degraded = slo_degraded_.load(std::memory_order_relaxed);
  s.shed_admission = slo_shed_admission_.load(std::memory_order_relaxed);
  s.shed_queue_full = slo_shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_expired = slo_shed_expired_.load(std::memory_order_relaxed);
  s.shed_shutdown = slo_shed_shutdown_.load(std::memory_order_relaxed);
  s.shed = s.shed_admission + s.shed_queue_full + s.shed_expired +
           s.shed_shutdown;
  s.deadline_misses = slo_deadline_misses_.load(std::memory_order_relaxed);
  s.queue_delay_estimate_s = predicted_delay(Priority::Normal);
  return s;
}

double PartitionServer::predicted_delay(Priority priority) const {
  std::size_t ahead = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (std::size_t cls = static_cast<std::size_t>(priority);
         cls < kPriorityClasses; ++cls)
      ahead += queued_per_class_[cls];
  }
  return estimator_.queue_delay(priority, ahead, threads_) +
         estimator_.service_estimate(priority);
}

std::vector<ServeResult> partition_batch(std::vector<BatchRequest> requests,
                                         const ServerOptions& options) {
  PartitionServer server(options);
  return server.run_batch(std::move(requests));
}

}  // namespace fpm::core
