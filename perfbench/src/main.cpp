// fpmbench: runs one benchmark workload and prints its metrics.
//
//   fpmbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//            [--smoke] [--trace-dir <dir>] [--git-sha <sha>] [--src-sha <sha>]
//
// Prints a provenance record, ops / ops_failed, one "metric <name> <value>
// <unit>" line per metric (the traced run adds the per-layer span table and
// writes <trace-dir>/trace_<workload>.json), and as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"} (with --workload all,
// every workload runs in this one process and the metric names carry a
// "<workload>." prefix). Exit code 0 when a
// result was printed, 2 on a usage error, 1 when the run itself failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/compiled.hpp"
#include "core/detail/parallel.hpp"
#include "runners.hpp"

namespace {

using namespace fpmbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fpmbench: " << why
            << "\nusage: fpmbench --workload <cold_p4096|serve_zipf_p256|"
               "churn_piecewise_p2048|all> --seed <n> --seconds <s> --trace <0|1>"
               " [--smoke] [--trace-dir <dir>]"
               " [--git-sha <sha>] [--src-sha <sha>]\n";
  std::exit(2);
}

double number(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || !std::isfinite(v))
    usage(flag + " needs a number, got '" + text + "'");
  return v;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Runs one workload and prints its provenance, ops, failures, metrics
/// and (traced) per-layer table.
RunReport run_one(RunOptions& opt, const std::string& git_sha,
                  const std::string& src_sha) {
  // Resolve the backend before the run so the record names the one used.
  const fpm::core::SimdBackend backend = fpm::core::active_simd_backend();
  std::ostringstream prov;
  prov << "{\"workload\":" << quoted(name(opt.workload))
       << ",\"seed\":" << opt.seed << ",\"seconds\":" << exact(opt.seconds)
       << ",\"trace\":" << (opt.trace ? 1 : 0)
       << ",\"smoke\":" << (opt.smoke ? "true" : "false")
       << ",\"git_sha\":" << quoted(git_sha)
       << ",\"src_sha256\":" << quoted(src_sha)
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"simd_backend\":" << quoted(fpm::core::to_string(backend))
       << ",\"lane_pool_threads\":" << fpm::core::detail::lane_pool_threads()
       << ",\"build_type\":" << quoted(FPMBENCH_BUILD_TYPE) << "}";
  opt.provenance_json = prov.str();
  std::cout << "provenance " << opt.provenance_json << "\n" << std::flush;

  RunReport report = run(opt);
  for (Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.failures.push_back("metric " + m.name + " is not finite");
      ++report.ops_failed;
      m.value = 0.0;
    }
  }
  std::cout << "workload " << name(opt.workload) << "\n"
            << "ops " << report.ops << "\n"
            << "ops_failed " << report.ops_failed << "\n";
  for (const std::string& f : report.failures)
    std::cout << "failure " << f << "\n";
  for (const Metric& m : report.metrics)
    std::cout << "metric " << m.name << " " << exact(m.value) << " "
              << m.unit << "\n";
  if (opt.trace) {
    std::cout << "\nper-layer spans (" << name(opt.workload) << ", trace "
              << opt.trace_path << ")\n"
              << report.layer_table << report.notes;
  }
  std::cout << "\n" << std::flush;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  bool all_workloads = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  std::string trace_dir = ".", git_sha = "unknown", src_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload" && value == "all") {
      all_workloads = have_workload = true;
    } else if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) usage("unknown workload '" + value + "'");
      opt.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      const double s = number(flag, value);
      if (s < 0 || s != std::floor(s)) usage("--seed must be an integer >= 0");
      opt.seed = static_cast<std::uint64_t>(s);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = number(flag, value);
      if (opt.seconds <= 0) usage("--seconds must be > 0");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--src-sha") {
      src_sha = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  // Serial sweeps. On a shared virtual machine, waking the lane pool's
  // helpers on idle vCPUs for every sweep made the p=4096 solve swing from
  // 8.6 to 25 ms with the neighbours' load, while serial solves held
  // within a few percent; the parallel sweep is left unmeasured.
  fpm::core::detail::set_lane_pool_threads(0);

  std::vector<Workload> workloads;
  if (all_workloads)
    workloads.assign(std::begin(kWorkloads), std::end(kWorkloads));
  else
    workloads.push_back(opt.workload);

  try {
    bool correct = true;
    std::int64_t attempted = 0, failed = 0;
    std::ostringstream metrics;
    for (const Workload w : workloads) {
      opt.workload = w;
      opt.trace_path = trace_dir + "/trace_" + std::string(name(w)) + ".json";
      const std::string prefix = all_workloads ? std::string(name(w)) + "." : "";
      RunReport report = run_one(opt, git_sha, src_sha);
      correct = correct && report.ops_failed == 0;
      attempted += report.ops;
      failed += report.ops_failed;
      for (const Metric& m : report.metrics)
        metrics << (metrics.tellp() > 0 ? "," : "") << quoted(prefix + m.name)
                << ":{\"value\":" << exact(m.value)
                << ",\"unit\":" << quoted(m.unit) << "}";
    }
    std::cout << "{\"correct\":" << (correct ? "true" : "false")
              << ",\"attempted\":" << attempted << ",\"failed\":" << failed
              << ",\"metrics\":{" << metrics.str() << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fpmbench: run failed: " << e.what() << "\n";
    return 1;
  }
}
