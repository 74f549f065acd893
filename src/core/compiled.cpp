#include "core/compiled.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <typeinfo>

#include "core/detail/parallel.hpp"
#include "core/detail/simd.hpp"
#include "core/detail/speed_kernels.hpp"
#include "core/piecewise.hpp"
#include "obs/metrics.hpp"

namespace fpm::core {
namespace {

/// Fingerprint seed (the 64-bit FNV offset basis; any fixed value works).
constexpr std::uint64_t kFingerprintSeed = 1469598103934665603ULL;

using detail::fingerprint_mix;
using detail::fingerprint_mix_bits;

using detail::simd::SimdKernels;

/// The kernel table a backend name selects (nullptr: the scalar kernels);
/// throws std::invalid_argument on names this build or CPU cannot run.
const SimdKernels* kernels_named(std::string_view name) {
  if (name == "auto") return detail::simd::resolved_simd_kernels();
  if (name == "off") return nullptr;
  const SimdKernels* k = detail::simd::find_simd_variant(name);
  if (k != nullptr && detail::simd::simd_variant_supported(*k)) return k;
  std::string msg = "simd backend '";
  msg += name;
  if (k != nullptr) {
    msg += "' is compiled in but not supported by this CPU";
  } else {
    msg += "' is not compiled into this build (available:";
    for (const SimdKernels* v : detail::simd::compiled_simd_variants()) {
      msg += ' ';
      msg += v->name;
    }
    msg += " auto off)";
  }
  throw std::invalid_argument(msg);
}

/// The default context's table, resolved once: FPM_SIMD_BACKEND when it
/// names a runnable backend (an invalid value is ignored here and rejected
/// loudly by fpmtool, which validates the variable), else the CPU's best.
const SimdKernels* default_kernels() noexcept {
  static const SimdKernels* const kernels = [] {
    const char* env = std::getenv("FPM_SIMD_BACKEND");
    try {
      return kernels_named(env != nullptr ? env : "auto");
    } catch (const std::exception&) {
      return detail::simd::resolved_simd_kernels();
    }
  }();
  return kernels;
}

/// Every class the compiled layer reads structurally, identified by its
/// exact dynamic type.
enum class Kind : std::uint8_t {
  Unknown,
  Constant,
  LinearDecay,
  PowerDecay,
  ExpDecay,
  Unimodal,
  Stepped,
  Piecewise,
  Scaled,
  Granular,
  GranularView,
};

struct KindRow {
  const std::type_info* type;
  Kind kind;
};

/// Exact-type dispatch is only sound for final classes: a subclass of a
/// recognized family could override speed() and must stay Generic.
template <typename T>
consteval KindRow kind_row(Kind kind) {
  static_assert(std::is_final_v<T>,
                "exact-type classification needs a final class");
  return {&typeid(T), kind};
}

constexpr KindRow kKinds[] = {
    kind_row<PowerDecaySpeed>(Kind::PowerDecay),
    kind_row<LinearDecaySpeed>(Kind::LinearDecay),
    kind_row<ExpDecaySpeed>(Kind::ExpDecay),
    kind_row<PiecewiseLinearSpeed>(Kind::Piecewise),
    kind_row<ConstantSpeed>(Kind::Constant),
    kind_row<SteppedSpeed>(Kind::Stepped),
    kind_row<UnimodalSpeed>(Kind::Unimodal),
    kind_row<ScaledSpeed>(Kind::Scaled),
    kind_row<GranularSpeed>(Kind::Granular),
    kind_row<GranularSpeedView>(Kind::GranularView),
};

Kind kind_of(const SpeedFunction& f) noexcept {
  const std::type_info& t = typeid(f);
  // One type_info object per class is the norm: pointer compares only.
  for (const KindRow& row : kKinds)
    if (&t == row.type) return row.kind;
  // A class can own several type_info objects across shared objects, which
  // std::type_info::operator== still equates.
  for (const KindRow& row : kKinds)
    if (t == *row.type) return row.kind;
  return Kind::Unknown;
}

/// Folds the pool words of an entry (read from the unwrapped source object)
/// into its hash `h`: the unimodal decay parameters, the steps, or the
/// breakpoints. Breakpoint sizes and speeds run on two independent chains
/// joined at the end (each join a bijection in the changed chain), which
/// halves the dependent multiply latency of the longest pools.
std::uint64_t hash_pool(std::uint64_t h, CompiledSpeedList::Family family,
                        const SpeedFunction* inner) noexcept {
  using Family = CompiledSpeedList::Family;
  switch (family) {
    case Family::Unimodal: {
      const auto* u = static_cast<const UnimodalSpeed*>(inner);
      h = fingerprint_mix_bits(h, u->decay_x0());
      return fingerprint_mix_bits(h, u->decay_exponent());
    }
    case Family::Stepped:
      for (const SteppedSpeed::Step& st :
           static_cast<const SteppedSpeed*>(inner)->steps()) {
        h = fingerprint_mix_bits(h, st.at);
        h = fingerprint_mix_bits(h, st.to);
        h = fingerprint_mix_bits(h, st.width);
      }
      return h;
    case Family::Piecewise: {
      std::uint64_t speeds = kFingerprintSeed;
      for (const SpeedPoint& pt :
           static_cast<const PiecewiseLinearSpeed*>(inner)->points()) {
        h = fingerprint_mix_bits(h, pt.size);
        speeds = fingerprint_mix_bits(speeds, pt.speed);
      }
      return fingerprint_mix(h, speeds);
    }
    default:
      return h;
  }
}

/// Counts one classification walk over a SpeedList (compile or
/// fingerprint_of), the unit the server's per-request budget is set in.
void count_classify_walk() noexcept {
  static obs::Counter& walks =
      obs::metrics().counter(obs::names::kCompiledClassifyWalks);
  walks.add(1);
}

[[noreturn]] void throw_null_entry() {
  throw std::invalid_argument("CompiledSpeedList: null speed function");
}

}  // namespace

SolveContext::SolveContext() noexcept {
  static const SolveContext defaults(default_kernels());
  *this = defaults;
}

SolveContext SolveContext::for_backend(std::string_view name) {
  return SolveContext(kernels_named(name));
}

bool simd_kernels_available() noexcept {
  return detail::simd::resolved_simd_kernels() != nullptr;
}

SimdBackend active_simd_backend() noexcept { return SolveContext().backend(); }

const char* to_string(SimdBackend backend) noexcept {
  switch (backend) {
    case SimdBackend::Portable:
      return "portable";
    case SimdBackend::Avx2:
      return "avx2";
    case SimdBackend::Avx512:
      return "avx512";
    case SimdBackend::Neon:
      return "neon";
    case SimdBackend::Disabled:
      break;
  }
  return "off";
}

const SpeedFunction* CompiledSpeedList::classify(const SpeedFunction& f,
                                                 Entry& e) {
  const SpeedFunction* inner = &f;
  e.wrap = Wrap::None;
  e.wrap_param = 1.0;
  Kind kind = kind_of(f);
  switch (kind) {
    case Kind::Scaled: {
      const auto& sc = static_cast<const ScaledSpeed&>(f);
      e.wrap = Wrap::Scaled;
      e.wrap_param = sc.factor();
      inner = &sc.base();
      break;
    }
    case Kind::Granular: {
      const auto& g = static_cast<const GranularSpeed&>(f);
      e.wrap = Wrap::Granular;
      e.wrap_param = g.elements_per_item();
      inner = &g.base();
      break;
    }
    case Kind::GranularView: {
      const auto& gv = static_cast<const GranularSpeedView&>(f);
      e.wrap = Wrap::Granular;
      e.wrap_param = gv.elements_per_item();
      inner = &gv.base();
      break;
    }
    default:
      break;
  }
  if (inner != &f) kind = kind_of(*inner);
  e.a = e.b = e.c = e.d = 0.0;
  e.count = 0;
  switch (kind) {
    case Kind::Constant: {
      const auto& c = static_cast<const ConstantSpeed&>(*inner);
      e.family = Family::Constant;
      e.a = c.s0();
      e.max_size = c.max_size();
      break;
    }
    case Kind::LinearDecay: {
      const auto& l = static_cast<const LinearDecaySpeed&>(*inner);
      e.family = Family::LinearDecay;
      e.a = l.s0();
      e.b = l.max_size();
      e.c = l.floor_speed();
      e.max_size = e.b;
      break;
    }
    case Kind::PowerDecay: {
      const auto& pd = static_cast<const PowerDecaySpeed&>(*inner);
      e.family = Family::PowerDecay;
      e.a = pd.s0();
      e.b = pd.x0();
      e.c = pd.exponent();
      e.d = pd.max_size();
      e.max_size = e.d;
      break;
    }
    case Kind::ExpDecay: {
      const auto& ed = static_cast<const ExpDecaySpeed&>(*inner);
      e.family = Family::ExpDecay;
      e.a = ed.s0();
      e.b = ed.lambda();
      e.d = ed.max_size();
      e.max_size = e.d;
      break;
    }
    case Kind::Unimodal: {
      const auto& u = static_cast<const UnimodalSpeed&>(*inner);
      e.family = Family::Unimodal;
      e.a = u.s_low();
      e.b = u.s_peak();
      e.c = u.x_peak();
      e.count = 2;
      e.max_size = u.max_size();
      break;
    }
    case Kind::Stepped: {
      const auto& st = static_cast<const SteppedSpeed&>(*inner);
      e.family = Family::Stepped;
      e.a = st.s0();
      e.count = static_cast<std::uint32_t>(st.steps().size());
      e.max_size = st.max_size();
      break;
    }
    case Kind::Piecewise: {
      const auto& pw = static_cast<const PiecewiseLinearSpeed&>(*inner);
      e.family = Family::Piecewise;
      e.a = pw.floor_speed();
      e.b = pw.tail_slope();
      e.count = static_cast<std::uint32_t>(pw.points().size());
      e.max_size = pw.max_size();
      break;
    }
    default:
      // Unknown family (or a wrapper around one, or nested wrappers): keep
      // the whole object behind the virtual interface.
      e.family = Family::Generic;
      e.wrap = Wrap::None;
      e.wrap_param = 1.0;
      e.max_size = f.max_size();
      return &f;
  }
  // A wrapped entry's range is the wrapper's own (Granular rescales it).
  if (e.wrap != Wrap::None) e.max_size = f.max_size();
  return inner;
}

std::uint64_t CompiledSpeedList::hash_entry(const Entry& e) noexcept {
  const std::uint64_t tag = (static_cast<std::uint64_t>(e.family) << 8) |
                            static_cast<std::uint64_t>(e.wrap);
  std::uint64_t h = fingerprint_mix(kFingerprintSeed, tag);
  if (e.family == Family::Generic)
    return fingerprint_mix(h, e.base->instance_id());
  h = fingerprint_mix_bits(h, e.wrap_param);
  h = fingerprint_mix_bits(h, e.max_size);
  h = fingerprint_mix_bits(h, e.a);
  h = fingerprint_mix_bits(h, e.b);
  h = fingerprint_mix_bits(h, e.c);
  h = fingerprint_mix_bits(h, e.d);
  return fingerprint_mix(h, static_cast<std::uint64_t>(e.count));
}

std::uint64_t CompiledSpeedList::fingerprint_of(const SpeedList& speeds) {
  // Classification only reads the objects — no pools, no allocations — so
  // the server's cache-hit path keys requests without compiling them. The
  // loop body is compile()'s first pass minus its bookkeeping. Each entry
  // is hashed on its own chain and folded into the list hash with a single
  // mix, so the chains of consecutive entries overlap in the pipeline; the
  // fold is a bijection in the entry hash, so one differing word in any
  // entry still changes the result.
  count_classify_walk();
  std::uint64_t h = fingerprint_mix(kFingerprintSeed, speeds.size());
  for (const SpeedFunction* f : speeds) {
    if (f == nullptr) throw_null_entry();
    Entry e;
    e.base = f;
    const SpeedFunction* inner = classify(*f, e);
    h = fingerprint_mix(h, hash_pool(hash_entry(e), e.family, inner));
  }
  return h;
}

CompiledSpeedList CompiledSpeedList::compile(const SpeedList& speeds) {
  count_classify_walk();
  CompiledSpeedList list;
  const std::size_t p = speeds.size();
  list.entries_.resize(p);
  // Pass 1, the only walk over the input objects: classify and hash every
  // entry exactly as fingerprint_of() does, and tally the pool and lane
  // sizes so everything below is allocated once at its final size.
  std::vector<const SpeedFunction*> inner(p);
  std::size_t n_aux = 0, n_steps = 0, n_points = 0;
  std::array<std::size_t, 8> unwrapped{};  // per Family
  std::uint64_t h = fingerprint_mix(kFingerprintSeed, p);
  for (std::size_t i = 0; i < p; ++i) {
    const SpeedFunction* f = speeds[i];
    if (f == nullptr) throw_null_entry();
    Entry& e = list.entries_[i];
    e.base = f;
    inner[i] = classify(*f, e);
    h = fingerprint_mix(h, hash_pool(hash_entry(e), e.family, inner[i]));
    switch (e.family) {
      case Family::Unimodal:
        n_aux += 2;
        break;
      case Family::Stepped:
        n_steps += e.count;
        break;
      case Family::Piecewise:
        n_points += e.count;
        break;
      case Family::Generic:
        ++list.generic_entries_;
        break;
      default:
        break;
    }
    if (e.wrap == Wrap::None) ++unwrapped[static_cast<std::size_t>(e.family)];
  }
  list.fingerprint_ = h;

  // Pass 2: copy the pool-backed data out of the unwrapped objects.
  list.aux_.resize(n_aux);
  list.steps_.resize(n_steps);
  list.px_.resize(n_points);
  list.ps_.resize(n_points);
  list.pm_.resize(n_points);
  std::uint32_t aux_off = 0, step_off = 0, point_off = 0;
  for (std::size_t i = 0; i < p; ++i) {
    Entry& e = list.entries_[i];
    switch (e.family) {
      case Family::Unimodal: {
        const auto* u = static_cast<const UnimodalSpeed*>(inner[i]);
        e.offset = aux_off;
        list.aux_[aux_off++] = u->decay_x0();
        list.aux_[aux_off++] = u->decay_exponent();
        break;
      }
      case Family::Stepped: {
        const auto& steps = static_cast<const SteppedSpeed*>(inner[i])->steps();
        e.offset = step_off;
        std::copy(steps.begin(), steps.end(), list.steps_.begin() + step_off);
        step_off += e.count;
        break;
      }
      case Family::Piecewise: {
        const auto pts =
            static_cast<const PiecewiseLinearSpeed*>(inner[i])->points();
        e.offset = point_off;
        double* px = list.px_.data() + point_off;
        double* ps = list.ps_.data() + point_off;
        double* pm = list.pm_.data() + point_off;
        for (std::size_t j = 0; j < pts.size(); ++j) {
          px[j] = pts[j].size;
          ps[j] = pts[j].speed;
        }
        // Segment slopes computed with the exact expression of
        // PiecewiseLinearSpeed::intersect, so the compiled segment solve
        // feeds piecewise_segment_intersect the same m it would compute per
        // call. One padding slot per function keeps pm_ aligned with
        // px_/ps_.
        for (std::size_t j = 1; j < pts.size(); ++j)
          pm[j - 1] = (pts[j].speed - pts[j - 1].speed) /
                      (pts[j].size - pts[j - 1].size);
        pm[pts.size() - 1] = 0.0;
        point_off += e.count;
        break;
      }
      default:
        break;
    }
  }

  // Batch plan for intersect_all(): group the unwrapped closed-form
  // families into SoA parameter lanes, vetted unwrapped Unimodal/Stepped
  // entries into the bisection lanes; everything else (wrapped entries,
  // irregular pool-backed entries, Piecewise, Generic) keeps the per-entry
  // dispatch. Vetting admits only parameters squarely inside the vector
  // kernels' vexp/vlog domains — anything exotic (non-normal scales,
  // negative exponents, too many steps) is a compile-time punt to
  // batch_other_, so the only runtime punt those lanes need is the
  // beyond-max_size bracket expansion. Each lane is reserved at its padded
  // upper bound (the unwrapped family count), so neither the fill nor the
  // padding below reallocates.
  using Col = BatchLane::Column BatchLane::*;
  const auto reserve_lane = [&unwrapped](BatchLane& lane, Family family,
                                         std::initializer_list<Col> cols) {
    const std::size_t count = unwrapped[static_cast<std::size_t>(family)];
    if (count == 0) return;
    lane.idx.reserve(count);
    for (const Col col : cols)
      (lane.*col).reserve(detail::simd::padded_size(count));
  };
  reserve_lane(list.lane_constant_, Family::Constant, {&BatchLane::a});
  reserve_lane(list.lane_linear_, Family::LinearDecay,
               {&BatchLane::a, &BatchLane::b, &BatchLane::c});
  reserve_lane(list.lane_power_, Family::PowerDecay,
               {&BatchLane::a, &BatchLane::b, &BatchLane::c, &BatchLane::d});
  reserve_lane(list.lane_exp_, Family::ExpDecay,
               {&BatchLane::a, &BatchLane::b, &BatchLane::d});
  reserve_lane(list.lane_unimodal_, Family::Unimodal,
               {&BatchLane::a, &BatchLane::b, &BatchLane::c, &BatchLane::d,
                &BatchLane::e, &BatchLane::f});
  if (const std::size_t count =
          unwrapped[static_cast<std::size_t>(Family::Stepped)]) {
    list.lane_stepped_.idx.reserve(count);
    list.lane_stepped_.a.reserve(detail::simd::padded_size(count));
    list.lane_stepped_.f.reserve(detail::simd::padded_size(count));
  }
  list.batch_other_.reserve(p);
  const auto pos_normal = [](double v) { return std::isnormal(v) && v > 0.0; };
  for (std::size_t i = 0; i < list.entries_.size(); ++i) {
    const Entry& e = list.entries_[i];
    const auto dst = static_cast<std::uint32_t>(i);
    if (e.wrap != Wrap::None) {
      list.batch_other_.push_back(dst);
      continue;
    }
    switch (e.family) {
      case Family::Constant:
        list.lane_constant_.idx.push_back(dst);
        list.lane_constant_.a.push_back(e.a);
        break;
      case Family::LinearDecay:
        list.lane_linear_.idx.push_back(dst);
        list.lane_linear_.a.push_back(e.a);
        list.lane_linear_.b.push_back(e.b);
        list.lane_linear_.c.push_back(e.c);
        break;
      case Family::PowerDecay:
        list.lane_power_.idx.push_back(dst);
        list.lane_power_.a.push_back(e.a);
        list.lane_power_.b.push_back(e.b);
        list.lane_power_.c.push_back(e.c);
        list.lane_power_.d.push_back(e.d);
        break;
      case Family::ExpDecay:
        list.lane_exp_.idx.push_back(dst);
        list.lane_exp_.a.push_back(e.a);
        list.lane_exp_.b.push_back(e.b);
        list.lane_exp_.d.push_back(e.d);
        break;
      case Family::Unimodal: {
        const double x0 = list.aux_[e.offset];
        const double k = list.aux_[e.offset + 1];
        const bool safe = pos_normal(e.c) && pos_normal(x0) &&
                          pos_normal(e.max_size) && std::isfinite(k) &&
                          k >= 0.0 && std::isfinite(e.a) && e.a >= 0.0 &&
                          std::isfinite(e.b) && e.b > 0.0;
        if (!safe) {
          list.batch_other_.push_back(dst);
          break;
        }
        list.lane_unimodal_.idx.push_back(dst);
        list.lane_unimodal_.a.push_back(e.a);
        list.lane_unimodal_.b.push_back(e.b);
        list.lane_unimodal_.c.push_back(e.c);
        list.lane_unimodal_.d.push_back(x0);
        list.lane_unimodal_.e.push_back(k);
        list.lane_unimodal_.f.push_back(e.max_size);
        break;
      }
      case Family::Stepped: {
        bool safe = pos_normal(e.a) && pos_normal(e.max_size) &&
                    e.count <= kMaxVecSteps;
        for (std::uint32_t s = 0; safe && s < e.count; ++s) {
          const SteppedSpeed::Step& st = list.steps_[e.offset + s];
          safe = std::isfinite(st.at) && pos_normal(st.to) &&
                 pos_normal(st.width);
        }
        if (!safe) {
          list.batch_other_.push_back(dst);
          break;
        }
        list.lane_stepped_.idx.push_back(dst);
        list.lane_stepped_.a.push_back(e.a);
        list.lane_stepped_.f.push_back(e.max_size);
        break;
      }
      default:
        list.batch_other_.push_back(dst);
        break;
    }
  }
  // Pad every lane column to kMaxLanes (the widest compiled vector width)
  // by duplicating the last real element: whichever backend the runtime
  // dispatch picks then streams whole registers with the pad slots
  // computing harmless in-domain values that are never scattered (idx
  // keeps the real count, and the scalar batch kernels loop over it).
  const auto pad_lane = [](BatchLane& lane) {
    if (lane.empty()) return;
    const std::size_t padded = detail::simd::padded_size(lane.idx.size());
    const auto grow = [padded](BatchLane::Column& col) {
      if (!col.empty()) col.resize(padded, col.back());
    };
    grow(lane.a);
    grow(lane.b);
    grow(lane.c);
    grow(lane.d);
    grow(lane.e);
    grow(lane.f);
  };
  pad_lane(list.lane_constant_);
  pad_lane(list.lane_linear_);
  pad_lane(list.lane_power_);
  pad_lane(list.lane_exp_);
  pad_lane(list.lane_unimodal_);
  // Second pass for the stepped lane: the slot-major slabs need the final
  // entry count (stride) before any step can be placed.
  if (!list.lane_stepped_.empty()) {
    SteppedLane& sl = list.lane_stepped_;
    const std::size_t count = sl.idx.size();
    sl.stride = detail::simd::padded_size(count);
    sl.a.resize(sl.stride, sl.a.back());
    sl.f.resize(sl.stride, sl.f.back());
    for (std::size_t j = 0; j < count; ++j)
      sl.nslots = std::max<std::size_t>(
          sl.nslots, list.entries_[sl.idx[j]].count);
    const double inf = std::numeric_limits<double>::infinity();
    sl.at.assign(sl.nslots * sl.stride, inf);       // identity step:
    sl.ratio.assign(sl.nslots * sl.stride, 1.0);    //   factor == 1 exactly
    sl.width.assign(sl.nslots * sl.stride, 1.0);
    for (std::size_t j = 0; j < count; ++j) {
      const Entry& e = list.entries_[sl.idx[j]];
      double level = e.a;
      for (std::uint32_t s = 0; s < e.count; ++s) {
        const SteppedSpeed::Step& st = list.steps_[e.offset + s];
        const std::size_t off = s * sl.stride + j;
        sl.at[off] = st.at;
        sl.ratio[off] = st.to / level;
        sl.width[off] = st.width;
        level = st.to;
      }
    }
  }
  return list;
}

double CompiledSpeedList::raw_speed(const Entry& e, double x) const {
  switch (e.family) {
    case Family::Constant:
      return e.a;
    case Family::LinearDecay:
      return detail::linear_decay_speed(e.a, e.b, e.c, x);
    case Family::PowerDecay:
      return detail::power_decay_speed(e.a, e.b, e.c, x);
    case Family::ExpDecay:
      return detail::exp_decay_speed(e.a, e.b, x);
    case Family::Unimodal:
      return detail::unimodal_speed(e.a, e.b, e.c, aux_[e.offset],
                                    aux_[e.offset + 1], x);
    case Family::Stepped: {
      double s = e.a;
      double level = e.a;
      for (std::uint32_t i = 0; i < e.count; ++i) {
        const SteppedSpeed::Step& st = steps_[e.offset + i];
        s *= detail::stepped_step_factor(st.at, st.to, st.width, level, x);
        level = st.to;
      }
      return s;
    }
    case Family::Piecewise: {
      const std::uint32_t off = e.offset;
      const std::uint32_t last = e.count - 1;
      if (x <= px_[off]) return ps_[off];
      if (x >= px_[off + last])
        return detail::piecewise_tail_speed(ps_[off + last], e.b, e.a,
                                            x - px_[off + last]);
      // Branchless segment lookup over the SoA breakpoints: narrow to the
      // last index with px <= x using conditional selects (no data-dependent
      // branches), exactly the segment std::upper_bound picks on the AoS
      // points — including the tie case x == px[j], which lands on the
      // segment starting at j either way.
      std::uint32_t base = 0;
      std::uint32_t len = last;  // candidates [0, count-2]
      while (len > 1) {
        const std::uint32_t half = len >> 1;
        const bool go_right = px_[off + base + half] <= x;
        base = go_right ? base + half : base;
        len = go_right ? len - half : half;
      }
      return detail::piecewise_segment_speed(px_[off + base], ps_[off + base],
                                             px_[off + base + 1],
                                             ps_[off + base + 1], x);
    }
    case Family::Generic:
      break;
  }
  return e.base->speed(x);
}

double CompiledSpeedList::entry_speed(const Entry& e, double x) const {
  switch (e.wrap) {
    case Wrap::Scaled:
      return e.wrap_param * raw_speed(e, x);
    case Wrap::Granular:
      return raw_speed(e, x * e.wrap_param) / e.wrap_param;
    case Wrap::None:
      break;
  }
  return raw_speed(e, x);
}

double CompiledSpeedList::entry_intersect(const Entry& e, double slope,
                                          const SimdKernels* kern,
                                          std::int64_t* saturations) const {
  assert(slope > 0.0);
  if (e.family == Family::Generic)
    return e.base->intersect(slope, saturations);
  if (e.wrap != Wrap::None) {
    // The wrappers do not override intersect() on the virtual side, so the
    // compiled side runs the same generic bisection over the same speed
    // values (virtual dispatch removed, arithmetic unchanged).
    return detail::generic_intersect(
        [this, &e](double x) { return entry_speed(e, x); }, e.max_size, slope,
        saturations);
  }
  switch (e.family) {
    case Family::Constant:
      return detail::constant_intersect(e.a, slope);
    case Family::LinearDecay:
      return detail::linear_decay_intersect(e.a, e.b, e.c, slope);
    case Family::PowerDecay:
      return detail::power_decay_intersect(e.a, e.b, e.c, e.d, slope,
                                           saturations);
    case Family::ExpDecay:
      return detail::exp_decay_intersect(e.a, e.b, e.d, slope);
    case Family::Piecewise: {
      // Mirrors PiecewiseLinearSpeed::intersect() step for step, reading the
      // SoA slabs and the precomputed segment slopes.
      const std::uint32_t off = e.offset;
      const std::uint32_t last = e.count - 1;
      const double b = px_[off + last];
      if (raw_speed(e, b) >= slope * b)
        return detail::piecewise_tail_intersect(b, ps_[off + last], e.b, e.a,
                                                slope);
      if (slope * px_[off] >= ps_[off]) return ps_[off] / slope;
      std::uint32_t lo = 0;
      std::uint32_t hi = last;
      if (kern != nullptr && e.count >= 16) {
        // Vectorized bracketing scan over the SoA slab: count the segment
        // starts still above the line. The predicate ps > slope·px is the
        // exact comparison of the binary search below, and the model's
        // decreasing speed(x)/x invariant makes it a true-prefix, so
        // (count_above - 1) is the same bracketing segment the binary
        // search lands on — bit-identically, since the arithmetic on the
        // selected segment is unchanged. The clamp only matters for
        // invalid (non-monotone) data, where either path is best-effort.
        const std::size_t above = kern->piecewise_count_above(
            px_.data() + off, ps_.data() + off, e.count, slope);
        lo = static_cast<std::uint32_t>(
            std::clamp<std::size_t>(above, 1, last) - 1);
        hi = lo + 1;
      } else {
        while (hi - lo > 1) {
          const std::uint32_t mid = lo + (hi - lo) / 2;
          if (ps_[off + mid] > slope * px_[off + mid])
            lo = mid;
          else
            hi = mid;
        }
      }
      return detail::piecewise_segment_intersect(px_[off + lo], ps_[off + lo],
                                                 pm_[off + lo], slope,
                                                 px_[off + lo], px_[off + hi]);
    }
    case Family::Unimodal:
    case Family::Stepped:
      // No closed form on the virtual side either: same generic bisection.
      return detail::generic_intersect(
          [this, &e](double x) { return raw_speed(e, x); }, e.max_size, slope,
          saturations);
    case Family::Generic:
      break;
  }
  return e.base->intersect(slope, saturations);
}

double CompiledSpeedList::speed(std::size_t i, double x) const {
  return entry_speed(entries_[i], x);
}

double CompiledSpeedList::intersect(std::size_t i, double slope,
                                    SolveContext* ctx) const {
  return entry_intersect(entries_[i], slope,
                         ctx ? ctx->kernels() : default_kernels(),
                         ctx ? &ctx->counters.bracket_saturations : nullptr);
}

/// One batch task of intersect_all: a closed-form lane (lane 0..3, with its
/// BatchLane), a bisection lane (4=unimodal with its BatchLane, 5=stepped
/// with the SteppedLane) or the per-entry fallback list (lane 6). `count`
/// is the real (unpadded) element count; chunks address element ranges.
struct CompiledSpeedList::LaneSweep {
  int lane = 0;  ///< 0=constant 1=linear 2=power 3=exp 4=unimodal 5=stepped
                 ///< 6=other
  const BatchLane* bl = nullptr;
  const SteppedLane* sl = nullptr;
  const std::vector<std::uint32_t>* other = nullptr;
  const SimdKernels* kern = nullptr;  ///< null => scalar batch
  std::size_t count = 0;
};

namespace {
/// Elements per parallel chunk — coarse enough that chunk handoff cost is
/// noise against ~512 intersect solves, small enough that p=4096 still
/// splits 8+ ways. Multiple of simd::kMaxLanes (chunk interiors then start
/// on vector boundaries at either width) and the size of the on-stack
/// result block below.
constexpr std::size_t kLaneChunk = 512;
static_assert(kLaneChunk % detail::simd::kMaxLanes == 0);

/// Per-backend slice of kPartitionBatchSimdEntries, indexed by the
/// context's SimdBackend (each registry slot resolved once).
obs::Counter& backend_simd_entries_counter(SimdBackend backend) {
  static obs::Counter* const counters[] = {
      nullptr,
      &obs::metrics().counter(obs::names::kPartitionBatchSimdEntriesPortable),
      &obs::metrics().counter(obs::names::kPartitionBatchSimdEntriesAvx2),
      &obs::metrics().counter(obs::names::kPartitionBatchSimdEntriesAvx512),
      &obs::metrics().counter(obs::names::kPartitionBatchSimdEntriesNeon)};
  return *counters[static_cast<std::size_t>(backend)];
}
}  // namespace

void CompiledSpeedList::lane_chunk_intersect(
    const LaneSweep& sweep, std::size_t begin, std::size_t end, double slope,
    std::span<double> out, std::int64_t& scalar_fixups,
    std::int64_t& saturations) const {
  if (sweep.lane == 6) {
    for (std::size_t j = begin; j < end; ++j) {
      const std::uint32_t i = (*sweep.other)[j];
      out[i] = entry_intersect(entries_[i], slope, sweep.kern, &saturations);
    }
    return;
  }
  const std::size_t m = end - begin;
  if (sweep.lane >= 4) {
    // Bisection lanes. These families have no scalar *batch* kernel, so
    // scalar mode is the per-entry generic bisection — bit-identical to
    // the pre-lane behaviour, where these entries sat in batch_other_.
    const std::vector<std::uint32_t>& idx =
        sweep.lane == 4 ? sweep.bl->idx : sweep.sl->idx;
    if (sweep.kern == nullptr) {
      for (std::size_t j = begin; j < end; ++j)
        out[idx[j]] =
            entry_intersect(entries_[idx[j]], slope, nullptr, &saturations);
      return;
    }
    assert(begin % sweep.kern->width == 0 && m <= kLaneChunk);
    alignas(64) double block[kLaneChunk];
    const std::size_t mpad = detail::simd::padded_size(m, sweep.kern->width);
    if (sweep.lane == 4) {
      const BatchLane& bl = *sweep.bl;
      sweep.kern->unimodal_batch(bl.a.data() + begin, bl.b.data() + begin,
                                 bl.c.data() + begin, bl.d.data() + begin,
                                 bl.e.data() + begin, bl.f.data() + begin,
                                 mpad, slope, block);
    } else {
      // The slot-major slabs share the entry indexing of a/f, so offsetting
      // every slab pointer by `begin` (keeping the full-lane stride) lands
      // slot s of chunk element j at [s·stride + begin + j] as laid out.
      const SteppedLane& sl = *sweep.sl;
      sweep.kern->stepped_batch(sl.a.data() + begin, sl.f.data() + begin,
                                sl.at.data() + begin, sl.ratio.data() + begin,
                                sl.width.data() + begin, mpad, sl.stride,
                                sl.nslots, slope, block);
    }
    for (std::size_t j = 0; j < m; ++j) {
      double x = block[j];
      if (std::isnan(x)) {
        // Crossing at/beyond max_size: rerun the scalar bisection so the
        // bracket expansion and its saturation count happen exactly as on
        // the per-entry path.
        x = entry_intersect(entries_[idx[begin + j]], slope, sweep.kern,
                            &saturations);
        ++scalar_fixups;
      }
      out[idx[begin + j]] = x;
    }
    return;
  }
  const BatchLane& bl = *sweep.bl;
  if (sweep.kern == nullptr) {
    // Bit-exact scalar batch kernels over the chunk's sub-columns (the
    // kernels loop over idx.size(), so padding never enters).
    const std::span<const std::uint32_t> idx(bl.idx.data() + begin, m);
    switch (sweep.lane) {
      case 0:
        detail::constant_intersect_batch(idx, {bl.a.data() + begin, m}, slope,
                                         out);
        break;
      case 1:
        detail::linear_decay_intersect_batch(idx, {bl.a.data() + begin, m},
                                             {bl.b.data() + begin, m},
                                             {bl.c.data() + begin, m}, slope,
                                             out);
        break;
      case 2:
        detail::power_decay_intersect_batch(
            idx, {bl.a.data() + begin, m}, {bl.b.data() + begin, m},
            {bl.c.data() + begin, m}, {bl.d.data() + begin, m}, slope, out,
            &saturations);
        break;
      default:
        detail::exp_decay_intersect_batch(idx, {bl.a.data() + begin, m},
                                          {bl.b.data() + begin, m},
                                          {bl.d.data() + begin, m}, slope,
                                          out);
        break;
    }
    return;
  }
  // Vector path: the kernel fills a dense on-stack block (begin is always a
  // multiple of the backend width — chunks step by kLaneChunk — and reading
  // up to the width-padded length stays inside the column because storage
  // is padded to kMaxLanes and only the final chunk has a ragged end). NaN
  // slots are the kernels' punt sentinel: recompute those with the exact
  // scalar kernel, then scatter through idx.
  assert(begin % sweep.kern->width == 0 && m <= kLaneChunk);
  alignas(64) double block[kLaneChunk];
  const std::size_t mpad = detail::simd::padded_size(m, sweep.kern->width);
  switch (sweep.lane) {
    case 0:
      sweep.kern->constant_batch(bl.a.data() + begin, mpad, slope, block);
      break;
    case 1:
      sweep.kern->linear_batch(bl.a.data() + begin, bl.b.data() + begin,
                               bl.c.data() + begin, mpad, slope, block);
      break;
    case 2:
      sweep.kern->power_batch(bl.a.data() + begin, bl.b.data() + begin,
                              bl.c.data() + begin, bl.d.data() + begin, mpad,
                              slope, block);
      break;
    default:
      sweep.kern->exp_batch(bl.a.data() + begin, bl.b.data() + begin, mpad,
                            slope, block);
      break;
  }
  if (sweep.lane <= 1) {
    // Constant/linear kernels never punt (pure IEEE arithmetic, no NaN
    // sentinels), so scatter without the fixup scan — the scan otherwise
    // costs as much as the division-bound kernels themselves.
    for (std::size_t j = 0; j < m; ++j) out[bl.idx[begin + j]] = block[j];
    return;
  }
  for (std::size_t j = 0; j < m; ++j) {
    double x = block[j];
    if (std::isnan(x)) {
      const std::size_t s = begin + j;
      if (sweep.lane == 2) {
        x = detail::power_decay_intersect(bl.a[s], bl.b[s], bl.c[s], bl.d[s],
                                          slope, &saturations);
      } else {
        x = detail::exp_decay_intersect(bl.a[s], bl.b[s], bl.d[s], slope);
      }
      ++scalar_fixups;
    }
    out[bl.idx[begin + j]] = x;
  }
}

void CompiledSpeedList::intersect_all(double slope, std::span<double> out,
                                      SolveContext* given) const {
  assert(out.size() == entries_.size());
  SolveContext fallback;
  SolveContext& ctx = given != nullptr ? *given : fallback;
  const SimdKernels* kern = ctx.kernels();

  LaneSweep sweeps[7];
  std::size_t nsweeps = 0;
  const auto add_lane = [&](int lane, const BatchLane& bl) {
    if (!bl.empty())
      sweeps[nsweeps++] =
          LaneSweep{lane, &bl, nullptr, nullptr, kern, bl.idx.size()};
  };
  add_lane(0, lane_constant_);
  add_lane(1, lane_linear_);
  add_lane(2, lane_power_);
  add_lane(3, lane_exp_);
  add_lane(4, lane_unimodal_);
  if (!lane_stepped_.empty())
    sweeps[nsweeps++] = LaneSweep{5,    nullptr, &lane_stepped_,
                                  nullptr, kern, lane_stepped_.idx.size()};
  if (!batch_other_.empty())
    sweeps[nsweeps++] = LaneSweep{6,    nullptr, nullptr,
                                  &batch_other_, kern, batch_other_.size()};

  // Chunk t is chunk t - first[i] of lane sweep i, first[i] <= t <
  // first[i + 1]: in order, the chunks are the serial loop.
  std::size_t first[8] = {};
  for (std::size_t i = 0; i < nsweeps; ++i)
    first[i + 1] = first[i] + (sweeps[i].count + kLaneChunk - 1) / kLaneChunk;
  const auto run_chunk = [&](std::size_t t, std::int64_t& fix,
                             std::int64_t& sat) {
    std::size_t i = 0;
    while (t >= first[i + 1]) ++i;
    const std::size_t b = (t - first[i]) * kLaneChunk;
    const std::size_t end = std::min(b + kLaneChunk, sweeps[i].count);
    lane_chunk_intersect(sweeps[i], b, end, slope, out, fix, sat);
  };
  std::int64_t fixups = 0;
  std::int64_t saturations = 0;
  bool split = false;
  if (ctx.executor != nullptr && entries_.size() >= kParallelSweepEntries) {
    // Each chunk counts locally and hands its totals over once.
    std::atomic<std::int64_t> fix_total{0};
    std::atomic<std::int64_t> sat_total{0};
    split = ctx.executor(first[nsweeps], [&](std::size_t t) {
      std::int64_t fix = 0;
      std::int64_t sat = 0;
      run_chunk(t, fix, sat);
      fix_total.fetch_add(fix, std::memory_order_relaxed);
      sat_total.fetch_add(sat, std::memory_order_relaxed);
    });
    fixups = fix_total.load(std::memory_order_relaxed);
    saturations = sat_total.load(std::memory_order_relaxed);
  } else {
    for (std::size_t t = 0; t < first[nsweeps]; ++t)
      run_chunk(t, fixups, saturations);
  }
  ctx.counters.bracket_saturations += saturations;

  // Lane occupancy / vector-path hit rate. Counter refs resolve once; the
  // per-backend split and the backend info gauge let dashboards tell which
  // variant the context picked without scraping logs.
  static obs::Counter& c_simd =
      obs::metrics().counter(obs::names::kPartitionBatchSimdEntries);
  static obs::Counter& c_scalar =
      obs::metrics().counter(obs::names::kPartitionBatchScalarEntries);
  static obs::Counter& c_splits =
      obs::metrics().counter(obs::names::kPartitionBatchParallelSweeps);
  static obs::Gauge& g_backend =
      obs::metrics().gauge(obs::names::kPartitionBatchBackend);
  const auto batched =
      static_cast<std::int64_t>(entries_.size() - batch_other_.size());
  const auto other = static_cast<std::int64_t>(batch_other_.size());
  g_backend.set(static_cast<double>(static_cast<std::uint8_t>(ctx.backend())));
  if (kern != nullptr) {
    c_simd.add(batched - fixups);
    backend_simd_entries_counter(ctx.backend()).add(batched - fixups);
    if (other + fixups != 0) c_scalar.add(other + fixups);
  } else if (batched + other != 0) {
    c_scalar.add(batched + other);
  }
  if (split) c_splits.add(1);
}

void CompiledSpeedList::speed_all(std::span<const double> xs,
                                  std::span<double> out,
                                  const SolveContext* ctx) const {
  assert(xs.size() == entries_.size() && out.size() == entries_.size());
  const SimdKernels* kern = ctx != nullptr ? ctx->kernels() : default_kernels();
  const auto scalar_lane = [&](const std::vector<std::uint32_t>& idx) {
    for (const std::uint32_t i : idx) out[i] = entry_speed(entries_[i], xs[i]);
  };
  // Constant/linear/bisection-lane entries are cheap per-entry scalar
  // evaluations (a select, a division, a couple of multiplies); the libm
  // pow/exp of the power/exp lanes is where the sweep's time goes, so those
  // two lanes take the vector speed kernels when a backend is active.
  scalar_lane(lane_constant_.idx);
  scalar_lane(lane_linear_.idx);
  scalar_lane(lane_unimodal_.idx);
  scalar_lane(lane_stepped_.idx);
  scalar_lane(batch_other_);
  if (kern == nullptr) {
    scalar_lane(lane_power_.idx);
    scalar_lane(lane_exp_.idx);
    return;
  }
  // Gather xs through idx into a padded column (pad slots duplicate the
  // last real size: in-domain, never scattered back), run the kernel over
  // the whole lane, fix up NaN punts with the exact scalar evaluation.
  static thread_local detail::simd::LaneVector xbuf;
  static thread_local detail::simd::LaneVector rbuf;
  const auto vector_lane = [&](const BatchLane& bl, bool is_power) {
    const std::size_t count = bl.idx.size();
    if (count == 0) return;
    const std::size_t storage = detail::simd::padded_size(count);
    const std::size_t mpad = detail::simd::padded_size(count, kern->width);
    xbuf.resize(storage);
    rbuf.resize(storage);
    for (std::size_t j = 0; j < count; ++j) xbuf[j] = xs[bl.idx[j]];
    for (std::size_t j = count; j < storage; ++j) xbuf[j] = xbuf[count - 1];
    if (is_power) {
      kern->power_speed_batch(bl.a.data(), bl.b.data(), bl.c.data(),
                              xbuf.data(), mpad, rbuf.data());
    } else {
      kern->exp_speed_batch(bl.a.data(), bl.b.data(), xbuf.data(), mpad,
                            rbuf.data());
    }
    for (std::size_t j = 0; j < count; ++j) {
      double s = rbuf[j];
      if (std::isnan(s)) s = entry_speed(entries_[bl.idx[j]], xs[bl.idx[j]]);
      out[bl.idx[j]] = s;
    }
  };
  vector_lane(lane_power_, /*is_power=*/true);
  vector_lane(lane_exp_, /*is_power=*/false);
}

std::vector<double> speeds_at(const CompiledSpeedList& speeds,
                              std::span<const double> xs, SolveContext* ctx) {
  std::vector<double> out(speeds.size());
  speeds.speed_all(xs, out, ctx);
  if (ctx)
    ctx->counters.speed_evals += static_cast<std::int64_t>(speeds.size());
  return out;
}

std::vector<double> sizes_at(const CompiledSpeedList& speeds, double slope,
                             SolveContext* ctx) {
  std::vector<double> xs(speeds.size());
  speeds.intersect_all(slope, xs, ctx);
  if (ctx)
    ctx->counters.intersect_solves += static_cast<std::int64_t>(speeds.size());
  return xs;
}

double total_size_at(const CompiledSpeedList& speeds, double slope,
                     SolveContext* ctx) {
  // The sweep fills a scratch row first so the final reduction still runs
  // in entry order: lane-local partial sums would reorder the floating-
  // point additions and break bit-identity with the SpeedList overload.
  static thread_local std::vector<double> scratch;
  scratch.resize(speeds.size());
  speeds.intersect_all(slope, scratch, ctx);
  double sum = 0.0;
  for (const double x : scratch) sum += x;
  if (ctx)
    ctx->counters.intersect_solves += static_cast<std::int64_t>(speeds.size());
  return sum;
}

}  // namespace fpm::core
