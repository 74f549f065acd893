#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace fpmbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

Tracer::Id Tracer::open(const char* name, Clock::time_point start,
                        std::uint64_t request, Id parent, bool async) {
  if (!enabled_) return kNone;
  const std::int64_t s = ns(start);
  spans_.push_back(Span{name, s, s, request, parent, async});
  return static_cast<Id>(spans_.size());
}

void Tracer::close(Id id, Clock::time_point end) {
  if (id != kNone) spans_[id - 1].end_ns = ns(end);
}

Tracer::Id Tracer::add(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t request,
                       Id parent) {
  const Id id = open(name, start, request, parent);
  close(id, end);
  return id;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& metadata_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata_json
      << ",\"traceEvents\":[";
  char buf[320];
  bool first = true;
  const auto emit = [&](const char* text) {
    out << (first ? "\n" : ",\n") << text;
    first = false;
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = static_cast<double>(s.start_ns) / 1e3;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    if (s.async) {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\","
                    "\"id\":%zu,\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"args\":{\"span\":%zu,\"req\":%llu}}",
                    s.name, i + 1, ts, i + 1,
                    static_cast<unsigned long long>(s.request));
      emit(buf);
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\","
                    "\"id\":%zu,\"pid\":1,\"tid\":1,\"ts\":%.3f}",
                    s.name, i + 1, ts + dur);
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                    "\"parent\":%u,\"req\":%llu}}",
                    s.name, ts, dur, i + 1, s.parent,
                    static_cast<unsigned long long>(s.request));
    }
    emit(buf);
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string Tracer::layer_table() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent != kNone) child_ns[s.parent - 1] += s.end_ns - s.start_ns;

  struct Row {
    std::vector<double> dur_us;
    double self_us = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Row& row = rows[s.name];
    row.dur_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    row.self_us +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e3;
  }
  std::ostringstream out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-34s %9s %11s %11s %11s %11s\n", "span",
                "calls", "total_ms", "mean_us", "p50_us", "self_us");
  out << buf;
  for (auto& [name, row] : rows) {
    std::vector<double>& d = row.dur_us;
    double total = 0.0;
    for (const double v : d) total += v;
    std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
    const double calls = static_cast<double>(d.size());
    std::snprintf(buf, sizeof buf, "%-34s %9zu %11.3f %11.3f %11.3f %11.3f\n",
                  name.c_str(), d.size(), total / 1e3, total / calls,
                  d[d.size() / 2], row.self_us / calls);
    out << buf;
  }
  return out.str();
}

double Tracer::span_cost_s() {
  constexpr int kSpans = 20000;
  Tracer scratch(true);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const Id id = scratch.open("calibrate", Clock::now(), 0);
    scratch.close(id, Clock::now());
  }
  return std::chrono::duration<double>(Clock::now() - t0).count() / kSpans;
}

}  // namespace fpmbench
