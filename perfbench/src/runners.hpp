// The workload runners: set up, measure one timed window, check every
// answer, and report the end-to-end and per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace fpmbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metric names and units, in the order they are reported. They mirror
/// the "end_to_end" and "per_layer" lists of BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

struct RunOptions {
  Workload workload = Workload::ColdP4096;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: spans around every library call, the isolated per-layer
  /// probe calls, and the per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Tiny sizes, for the smoke tests.
  bool smoke = false;
  /// Where the traced run writes its Chrome-trace JSON.
  std::string trace_path;
  /// JSON object embedded in the trace metadata.
  std::string provenance_json = "{}";
};

struct RunReport {
  std::int64_t ops = 0;
  /// Answers that failed a check, plus violated accounting invariants.
  std::int64_t ops_failed = 0;
  std::vector<std::string> failures;  ///< the first few violations
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when traced
  std::string layer_table;      ///< traced run only
  std::string notes;            ///< traced run only
};

RunReport run(const RunOptions& options);

/// Peak resident set of this process in MB since the last reset_peak_rss().
double peak_rss_mb();

/// Resets the peak resident set to the current one (Linux >= 4.0), so each
/// workload reports its own peak even after another ran in this process.
/// run() calls it before each workload.
void reset_peak_rss();

}  // namespace fpmbench
