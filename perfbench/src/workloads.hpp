// Inputs of the three benchmark workloads, generated from the run seed
// alone: the same seed always yields the same fleets and the same request
// sequence, and the library only ever sees these generated inputs.
//
//   cold_p4096             one client, core::partition() on one p=4096 fleet
//   serve_zipf_p256        Poisson arrivals into PartitionServer::submit()
//                          over 32 Zipf-popular p=256 fleets
//   churn_piecewise_p2048  one client, PartitionServer::serve() cycling a
//                          pool of 64 piecewise-linear p=2048 fleets
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/fleetgen.hpp"
#include "util/rng.hpp"

namespace fpmbench {

enum class Workload { ColdP4096, ServeZipfP256, ChurnPiecewiseP2048 };

inline constexpr Workload kWorkloads[] = {Workload::ColdP4096,
                                          Workload::ServeZipfP256,
                                          Workload::ChurnPiecewiseP2048};

const char* name(Workload workload) noexcept;
std::optional<Workload> parse_workload(std::string_view name) noexcept;

/// Log-uniform element counts in [lo, hi]; with `drift` > 0 each count is
/// a multiplicative random walk step of at most ±drift from the previous
/// one (clamped to the range), otherwise an independent draw.
class SizeStream {
 public:
  SizeStream(std::uint64_t seed, double lo, double hi, double drift = 0.0);
  std::int64_t next();

 private:
  fpm::util::Rng rng_;
  double lo_, hi_, drift_;
  double current_;
};

// ---------------------------------------------------------------- cold_p4096

struct ColdConfig {
  std::size_t p = 4096;
  double n_lo = 1e8;
  double n_hi = 1e9;
  /// Closed-loop latency limit for deadline_met_frac / goodput.
  double limit_ms = 25.0;
};
ColdConfig cold_config(bool smoke);

// ----------------------------------------------------------- serve_zipf_p256

struct ZipfConfig {
  std::size_t p = 256;
  std::size_t fleets = 32;
  double zipf_s = 1.1;
  std::size_t hot_per_fleet = 8;
  /// Share of requests that repeat a hot (fleet, n): cache hits.
  double repeat_frac = 0.8;
  /// Near misses draw a hot n and move it by up to ±near_miss_drift.
  double near_miss_drift = 0.05;
  double n_lo = 1e7;
  double n_hi = 1e8;
  /// Fixed absolute offered rate (requests/s), never recalibrated per run:
  /// about 45% of the capacity of the 4-core AVX-512 host the benchmark was
  /// defined on, measured in a fast phase of that shared host (see
  /// perfbench/README.md). A faster server must show lower latency and CPU
  /// per request at this load, not be handed more load.
  double rate_per_s = 4000.0;
  /// Deadline of every request, measured from its scheduled send time.
  double deadline_ms = 10.0;
};
ZipfConfig zipf_config(bool smoke);

struct ZipfRequest {
  double at_s = 0.0;  ///< scheduled send time from the window start
  std::uint32_t fleet = 0;
  std::int64_t n = 0;
  bool repeat = false;  ///< hot (fleet, n) pair rather than a near miss

  bool operator==(const ZipfRequest&) const = default;
};

/// The 32 fleets and their hot element counts.
struct ZipfInputs {
  std::vector<fpm::core::SyntheticFleet> fleets;
  std::vector<fpm::core::SpeedList> lists;
  std::vector<std::vector<std::int64_t>> hot_n;  ///< [fleet][k]
};
ZipfInputs make_zipf_inputs(const ZipfConfig& config, std::uint64_t seed);

/// Poisson arrivals at config.rate_per_s covering [0, seconds).
std::vector<ZipfRequest> make_zipf_schedule(const ZipfConfig& config,
                                            const ZipfInputs& inputs,
                                            std::uint64_t seed,
                                            double seconds);

// ----------------------------------------------------- churn_piecewise_p2048

struct ChurnConfig {
  std::size_t p = 2048;
  std::size_t pool = 64;
  /// Both stores smaller than the pool, so cycling it always misses.
  std::size_t cache_capacity = 16;
  std::size_t hint_capacity = 16;
  double n_lo = 1e8;
  double n_hi = 1e9;
  double n_drift = 0.05;
  double limit_ms = 25.0;
  /// Piecewise-linear models only: build_speed_model (the §3.1 builder),
  /// balance::OnlineModel::curve and the Rebalancer produce nothing else.
  /// The stepped lane runs in the default mix of the other two workloads.
  fpm::core::FleetMix mix{0.0, 0.0, 0.0, 0.0, 1.0, 0.0};
};
ChurnConfig churn_config(bool smoke);

struct ChurnInputs {
  std::vector<fpm::core::SyntheticFleet> fleets;
  std::vector<fpm::core::SpeedList> lists;
};
ChurnInputs make_churn_inputs(const ChurnConfig& config, std::uint64_t seed);

struct ChurnRequest {
  std::uint32_t fleet = 0;
  std::int64_t n = 0;
  bool operator==(const ChurnRequest&) const = default;
};

/// Cycles the pool in order while n drifts.
class ChurnStream {
 public:
  ChurnStream(const ChurnConfig& config, std::uint64_t seed);
  ChurnRequest next();

 private:
  std::size_t pool_;
  std::uint64_t index_ = 0;
  SizeStream sizes_;
};

/// Independent sub-seed `k` of a run seed (SplitMix64 finalizer), so each
/// generated input draws from its own stream.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) noexcept;

}  // namespace fpmbench
