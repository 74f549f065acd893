#include "workloads.hpp"

#include <algorithm>
#include <cmath>

namespace fpmbench {

const char* name(Workload workload) noexcept {
  switch (workload) {
    case Workload::ColdP4096:
      return "cold_p4096";
    case Workload::ServeZipfP256:
      return "serve_zipf_p256";
    case Workload::ChurnPiecewiseP2048:
      return "churn_piecewise_p2048";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view text) noexcept {
  for (const Workload w : kWorkloads)
    if (text == name(w)) return w;
  return std::nullopt;
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) noexcept {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

SizeStream::SizeStream(std::uint64_t seed, double lo, double hi, double drift)
    : rng_(seed), lo_(std::log(lo)), hi_(std::log(hi)), drift_(drift) {
  current_ = rng_.uniform(lo_, hi_);
}

std::int64_t SizeStream::next() {
  if (drift_ > 0.0) {
    current_ = std::clamp(
        current_ + rng_.uniform(std::log1p(-drift_), std::log1p(drift_)), lo_,
        hi_);
  } else {
    current_ = rng_.uniform(lo_, hi_);
  }
  return static_cast<std::int64_t>(std::llround(std::exp(current_)));
}

// ---------------------------------------------------------------- cold_p4096

ColdConfig cold_config(bool smoke) {
  ColdConfig c;
  if (smoke) c.p = 64;
  return c;
}

// ----------------------------------------------------------- serve_zipf_p256

ZipfConfig zipf_config(bool smoke) {
  ZipfConfig c;
  if (smoke) {
    c.p = 16;
    c.fleets = 4;
    c.hot_per_fleet = 2;
    c.rate_per_s = 400.0;
  }
  return c;
}

ZipfInputs make_zipf_inputs(const ZipfConfig& config, std::uint64_t seed) {
  ZipfInputs in;
  fpm::util::Rng rng(sub_seed(seed, 1));
  for (std::size_t f = 0; f < config.fleets; ++f) {
    in.fleets.push_back(fpm::core::make_synthetic_fleet(config.p, rng()));
    in.lists.push_back(in.fleets.back().list());
    std::vector<std::int64_t> hot;
    SizeStream sizes(rng(), config.n_lo, config.n_hi);
    for (std::size_t k = 0; k < config.hot_per_fleet; ++k)
      hot.push_back(sizes.next());
    in.hot_n.push_back(std::move(hot));
  }
  return in;
}

std::vector<ZipfRequest> make_zipf_schedule(const ZipfConfig& config,
                                            const ZipfInputs& inputs,
                                            std::uint64_t seed,
                                            double seconds) {
  std::vector<double> cdf(config.fleets);
  double total = 0.0;
  for (std::size_t k = 0; k < config.fleets; ++k)
    cdf[k] = total += std::pow(static_cast<double>(k + 1), -config.zipf_s);
  for (double& c : cdf) c /= total;

  fpm::util::Rng rng(sub_seed(seed, 2));
  std::vector<ZipfRequest> schedule;
  schedule.reserve(static_cast<std::size_t>(config.rate_per_s * seconds * 1.1));
  double at = 0.0;
  for (;;) {
    at += -std::log1p(-rng.uniform()) / config.rate_per_s;
    if (at >= seconds) break;
    ZipfRequest r;
    r.at_s = at;
    r.fleet = static_cast<std::uint32_t>(
        std::min<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(),
                                               rng.uniform()) -
                                  cdf.begin(),
                              config.fleets - 1));
    const auto& hot = inputs.hot_n[r.fleet];
    const std::int64_t base = hot[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hot.size()) - 1))];
    r.repeat = rng.uniform() < config.repeat_frac;
    r.n = r.repeat ? base
                   : static_cast<std::int64_t>(std::llround(
                         static_cast<double>(base) *
                         (1.0 + rng.uniform(-config.near_miss_drift,
                                            config.near_miss_drift))));
    schedule.push_back(r);
  }
  return schedule;
}

// ----------------------------------------------------- churn_piecewise_p2048

ChurnConfig churn_config(bool smoke) {
  ChurnConfig c;
  if (smoke) {
    c.p = 64;
    c.pool = 8;
    c.cache_capacity = 4;
  }
  return c;
}

ChurnInputs make_churn_inputs(const ChurnConfig& config, std::uint64_t seed) {
  ChurnInputs in;
  fpm::util::Rng rng(sub_seed(seed, 3));
  for (std::size_t f = 0; f < config.pool; ++f) {
    in.fleets.push_back(
        fpm::core::make_synthetic_fleet(config.p, rng(), config.mix));
    in.lists.push_back(in.fleets.back().list());
  }
  return in;
}

ChurnStream::ChurnStream(const ChurnConfig& config, std::uint64_t seed)
    : pool_(config.pool),
      sizes_(sub_seed(seed, 4), config.n_lo, config.n_hi, config.n_drift) {}

ChurnRequest ChurnStream::next() {
  ChurnRequest r;
  r.fleet = static_cast<std::uint32_t>(index_++ % pool_);
  r.n = sizes_.next();
  return r;
}

}  // namespace fpmbench
