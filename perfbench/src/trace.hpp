// In-memory span recorder for the traced benchmark run. The benchmark's own
// code opens a span around each call it makes into a library layer (name,
// start, end, parent span, request id); spans stay in memory and are
// written out when the run ends, as a Chrome-trace JSON file
// (chrome://tracing, Perfetto) and as a per-layer table of call counts,
// mean durations and self times. A disabled tracer records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace fpmbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  using Id = std::uint32_t;  ///< 1-based span id; 0 = none
  static constexpr Id kNone = 0;

  explicit Tracer(bool enabled);

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span starting at `start`; close() sets its end. `async`
  /// spans may overlap others on the same thread (open-loop requests).
  Id open(const char* name, Clock::time_point start, std::uint64_t request,
          Id parent = kNone, bool async = false);
  void close(Id id, Clock::time_point end);
  /// Records a finished span.
  Id add(const char* name, Clock::time_point start, Clock::time_point end,
         std::uint64_t request, Id parent = kNone);

  std::size_t size() const noexcept { return spans_.size(); }

  /// Chrome-trace JSON ("traceEvents" plus a "metadata" object holding
  /// `metadata_json`, which must be a JSON object).
  bool write_chrome_trace(const std::string& path,
                          const std::string& metadata_json) const;

  /// One row per span name: calls, total ms, mean and p50 duration (us)
  /// and mean self time (us) — duration minus the time covered by its
  /// child spans.
  std::string layer_table() const;

  /// Measured cost of recording one span (two clock reads plus the
  /// append), in seconds.
  static double span_cost_s();

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t request;
    Id parent;
    bool async;
  };
  std::int64_t ns(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace fpmbench
