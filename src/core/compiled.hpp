// Compiled speed models: a SpeedList flattened into contiguous,
// tag-dispatched arrays so the partitioners' hot loops run without virtual
// calls and with closed-form intersections wherever a family has one.
//
// CompiledSpeedList::compile() recognizes every analytic family shipped in
// core/speed_function.hpp plus PiecewiseLinearSpeed (whose breakpoints are
// re-laid out as structure-of-arrays slabs with a branchless segment
// lookup), and one level of ScaledSpeed / GranularSpeed / GranularSpeedView
// wrapping around them. Anything else falls back to a Generic entry that
// forwards to the original virtual object, so compilation is total: every
// SpeedList compiles, and the result is bit-identical to the virtual path
// because both sides evaluate the shared kernels of
// detail/speed_kernels.hpp (asserted in tests).
//
// Classification dispatches once on each entry's exact dynamic type
// (typeid): every recognized class is final, so the exact type decides the
// family. compile() and fingerprint_of()
// share that classifier and the word order of the fingerprint, and each
// walks the list exactly once (counted by the compiled.classify_walks
// metric): compile() hashes the entries while it copies their pools, so a
// cold core::partition() walks its models once, a server cache hit once,
// and a miss twice (key, then compile).
//
// This is the engine's one model representation: detail::SearchState runs
// every registry algorithm on a CompiledSpeedList it is handed. The
// SpeedList overload of core::partition() compiles once and forwards to the
// compiled overload; the batch/server layer (core/server.hpp) compiles each
// missed request once, passes that model to the engine, and reuses the
// fingerprint() content hash as its cache key.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/detail/parallel.hpp"
#include "core/detail/simd.hpp"
#include "core/partition.hpp"
#include "core/speed_function.hpp"
#include "util/aligned.hpp"

namespace fpm::core {

/// Counters incremented at the SpeedFunction boundary: one per speed(x)
/// evaluation and one per c·x = s(x) solve, exactly the accounting of
/// PartitionStats::speed_evals / intersect_solves. Evaluations *inside* a
/// solve (e.g. the probes of a generic bisection) are not counted.
/// bracket_saturations counts the generic bisections among those solves
/// whose bracket expansion saturated (PartitionStats::bracket_saturations).
struct EvalCounters {
  std::int64_t speed_evals = 0;
  std::int64_t intersect_solves = 0;
  std::int64_t bracket_saturations = 0;
};

/// Lower-case name for CLI/JSON/metrics surfaces: "off", "portable",
/// "avx2", "avx512", "neon".
const char* to_string(SimdBackend backend) noexcept;

/// Entry count from which a sweep splits its batch lanes into chunks on
/// the context's executor (the calling thread participates). Results are
/// bit-identical either way: chunks write disjoint ranges and reductions
/// stay in entry order.
inline constexpr std::size_t kParallelSweepEntries = 1024;

/// Everything a solve reads besides its model and n, passed down
/// explicitly: the kernel table its sweeps run, the executor that may split
/// a large sweep across threads, and the counters its evaluations land in.
/// No process-wide switch changes what a context does, so two threads
/// solving with different contexts never change each other's answers.
class SolveContext {
 public:
  /// The default context. Its kernel table is resolved once per process:
  /// the backend FPM_SIMD_BACKEND names when it names one this build and
  /// CPU can run (any value for_backend accepts), otherwise the CPU's best.
  /// Its executor is the shared lane pool (detail/parallel.hpp).
  SolveContext() noexcept;

  /// A context on one backend: "auto" (the CPU's best, whatever the
  /// environment says), "off" (the bit-exact scalar kernels), or a variant
  /// name ("portable", "avx2", "avx512", "neon"). Throws
  /// std::invalid_argument when the name is not a variant compiled into
  /// this build or the CPU lacks its instruction set. The executor is the
  /// default context's.
  static SolveContext for_backend(std::string_view name);

  /// The vector kernel table, or nullptr for the scalar batch kernels.
  const detail::simd::SimdKernels* kernels() const noexcept { return kernels_; }
  SimdBackend backend() const noexcept {
    return kernels_ != nullptr ? kernels_->backend : SimdBackend::Disabled;
  }

  /// Splits sweeps of kParallelSweepEntries or more entries into chunks;
  /// nullptr runs every sweep serially on the calling thread.
  detail::ChunkExecutor executor = &detail::parallel_for_chunks;
  EvalCounters counters;

 private:
  explicit SolveContext(const detail::simd::SimdKernels* kernels) noexcept
      : kernels_(kernels) {}

  const detail::simd::SimdKernels* kernels_;
};

class CompiledSpeedList {
 public:
  /// Which evaluation kernel an entry dispatches to.
  enum class Family : std::uint8_t {
    Generic,      ///< unknown subclass: forwards to the virtual object
    Constant,
    LinearDecay,
    PowerDecay,
    ExpDecay,
    Unimodal,
    Stepped,
    Piecewise,
  };

  /// How the entry's kernel is wrapped (one level deep).
  enum class Wrap : std::uint8_t {
    None,
    Scaled,    ///< speed = factor · inner(x)
    Granular,  ///< speed = inner(x·k) / k, max_size = inner's / k
  };

  /// Flattens `speeds` into compiled entries. The input objects must
  /// outlive the compiled list (Generic entries keep pointers; all entries
  /// keep one for introspection).
  static CompiledSpeedList compile(const SpeedList& speeds);

  std::size_t size() const noexcept { return entries_.size(); }
  Family family(std::size_t i) const noexcept { return entries_[i].family; }
  Wrap wrap(std::size_t i) const noexcept { return entries_[i].wrap; }
  double max_size(std::size_t i) const noexcept {
    return entries_[i].max_size;
  }
  /// The original object behind entry i.
  const SpeedFunction* base(std::size_t i) const noexcept {
    return entries_[i].base;
  }
  /// True when no entry needed the Generic virtual fallback.
  bool fully_compiled() const noexcept { return generic_entries_ == 0; }
  std::size_t generic_entries() const noexcept { return generic_entries_; }

  /// Absolute speed of processor i at size x — switch-dispatched, no
  /// virtual call except for Generic entries.
  double speed(std::size_t i, double x) const;

  /// Solves slope·x = s_i(x), using the family's closed form where one
  /// exists and the shared generic bisection otherwise. Always the scalar
  /// arithmetic, bit-identical to the virtual path whatever the backend; a
  /// bracket saturation counts into ctx->counters (nullptr: the default
  /// context, uncounted).
  double intersect(std::size_t i, double slope,
                   SolveContext* ctx = nullptr) const;

  /// Solves slope·x = s_i(x) for every entry in one structure-of-arrays
  /// pass: the closed-form families (Constant, LinearDecay, PowerDecay,
  /// ExpDecay, unwrapped) plus parameter-vetted unwrapped Unimodal/Stepped
  /// entries run out of contiguous parameter lanes built at compile time —
  /// through the context's vector kernels (detail/simd.hpp), or the scalar
  /// batch kernels / per-entry bisection when it has none — and the
  /// remaining entries fall back to the per-entry dispatch. out.size()
  /// must equal size(). With the scalar kernels (backend "off", or
  /// FPM_SIMD=OFF) this is bit-identical to calling intersect(i, slope) per
  /// entry; with a vector backend, Constant/LinearDecay lanes and the
  /// piecewise scan stay bit-identical while PowerDecay/ExpDecay roots and
  /// the Unimodal/Stepped bisections may differ by a few ULP (decision
  /// boundaries are punted to the exact scalar kernels — see
  /// docs/performance.md). Runs on `ctx` (nullptr: a default context):
  /// bracket saturations count into ctx->counters, and at
  /// kParallelSweepEntries or more entries the lanes run in chunks on
  /// ctx->executor.
  void intersect_all(double slope, std::span<double> out,
                     SolveContext* ctx = nullptr) const;

  /// Evaluates speed(i, xs[i]) for every entry in one pass — the fine-tune
  /// epilogue's hot loop (core/finetune.cpp seeds its award heap from one
  /// such sweep instead of p virtual calls). The PowerDecay/ExpDecay lanes
  /// gather their sizes and run the context's vector speed kernels (NaN
  /// punts fixed up scalar, same contract as intersect_all); every other
  /// entry takes the per-entry dispatch, which is bit-identical to
  /// speed(i, xs[i]). With the scalar kernels the whole sweep is the
  /// per-entry loop, bit-identical to calling speed() yourself. Runs on
  /// `ctx`'s kernels (nullptr: the default context's).
  void speed_all(std::span<const double> xs, std::span<double> out,
                 const SolveContext* ctx = nullptr) const;

  /// How many entries run through a batch lane (the rest take the
  /// per-entry fallback inside intersect_all).
  std::size_t batched_entries() const noexcept {
    return entries_.size() - batch_other_.size();
  }

  /// Content hash over (family, wrap, parameters, breakpoints) of every
  /// entry, in order — equal model lists hash equal regardless of object
  /// identity. Every 64-bit word (parameters by bit pattern, so -0.0/+0.0
  /// and NaN payloads stay distinct) goes through detail::fingerprint_mix,
  /// a bijection in either argument: two lists of the same shape that
  /// differ in any single word always hash apart. Generic entries hash
  /// their SpeedFunction::instance_id() (identity semantics, never reused
  /// within the process), so two structurally equal unknown subclasses
  /// never share a cache line and a freed model's key dies with it.
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// The fingerprint `compile(speeds)` would produce, computed in one
  /// classification walk without materializing the compiled entries or SoA
  /// pools (no allocations). This is the cache-key fast path of
  /// core/server.hpp: a cache hit needs only the key, so it must not pay
  /// for a full compilation. compile() hashes the same words in the same
  /// order inside its own walk.
  static std::uint64_t fingerprint_of(const SpeedList& speeds);

 private:
  struct Entry {
    Family family = Family::Generic;
    Wrap wrap = Wrap::None;
    double wrap_param = 1.0;  ///< Scaled: factor; Granular: elements/item
    double max_size = 0.0;    ///< after wrapping
    // Analytic parameters (meaning depends on family):
    //   Constant     a = s0
    //   LinearDecay  a = s0, b = B (inner max_size), c = floor
    //   PowerDecay   a = s0, b = x0, c = k, d = inner max_size
    //   ExpDecay     a = s0, b = lambda, d = inner max_size
    //   Unimodal     a = s_low, b = s_peak, c = x_peak (+ pool: x0, k)
    //   Stepped      a = s0; steps in the step pool
    //   Piecewise    breakpoints in the SoA pools; a = floor, b = tail slope
    double a = 0.0, b = 0.0, c = 0.0, d = 0.0;
    std::uint32_t offset = 0;  ///< first pool index (piecewise/stepped/aux)
    std::uint32_t count = 0;   ///< pool element count
    const SpeedFunction* base = nullptr;
  };

  /// Exact-type classification of `f` into `e` (family, wrap, scalar
  /// parameters, pool count, max_size; base and offset are left alone).
  /// Returns the unwrapped object the pool data lives in.
  static const SpeedFunction* classify(const SpeedFunction& f, Entry& e);
  /// Hash of an entry's family/wrap tag and scalar words (its own chain;
  /// the list hash folds one such value per entry).
  static std::uint64_t hash_entry(const Entry& e) noexcept;

  double raw_speed(const Entry& e, double x) const;
  double entry_speed(const Entry& e, double x) const;
  /// `kern` only picks the piecewise segment scan (the same segment either
  /// way); saturations count into `*saturations` when non-null.
  double entry_intersect(const Entry& e, double slope,
                         const detail::simd::SimdKernels* kern,
                         std::int64_t* saturations) const;

  /// One SoA lane of the batch plan: the destination entry indices plus the
  /// parameter columns the family's batch kernel consumes. Columns are
  /// 64-byte aligned and padded to detail::simd::kMaxLanes — the *widest*
  /// compiled vector width, so the runtime-dispatched backend can stream
  /// whole registers at either width without reading past the pool (pad
  /// slots duplicate the last real element); idx keeps the real entry
  /// count. The scalar batch kernels simply ignore the padding (they loop
  /// over idx.size()). e/f are only populated for the unimodal lane
  /// (d=decay_x0, e=decay_exponent, f=max_size).
  struct BatchLane {
    using Column = std::vector<double, util::AlignedAllocator<double, 64>>;
    std::vector<std::uint32_t> idx;
    Column a, b, c, d, e, f;
    bool empty() const noexcept { return idx.empty(); }
  };

  /// SoA lane for vetted Stepped entries: per-entry s0/max_size columns
  /// plus slot-major step slabs (`nslots` columns of `stride` doubles; the
  /// s-th step of entry j lives at [s·stride + j]). Entries with more than
  /// kMaxVecSteps steps, or with parameters outside the vector kernels'
  /// domain, stay in batch_other_ ("irregular" punt at compile time).
  /// Unused slots hold the identity step (at=+inf, ratio=1, width=1);
  /// `ratio` is the step's to/level factor precomputed at compile time —
  /// the same division the scalar kernel performs per evaluation.
  struct SteppedLane {
    using Column = std::vector<double, util::AlignedAllocator<double, 64>>;
    std::vector<std::uint32_t> idx;
    Column a, f;                ///< s0, max_size (padded like BatchLane)
    Column at, ratio, width;    ///< nslots × stride slot-major slabs
    std::size_t nslots = 0;
    std::size_t stride = 0;     ///< padded idx count (kMaxLanes multiple)
    bool empty() const noexcept { return idx.empty(); }
  };

  /// Most steps a SteppedSpeed may have and still ride the vector lane.
  static constexpr std::size_t kMaxVecSteps = 8;

  struct LaneSweep;  // one chunk-parallel batch task (compiled.cpp)
  void lane_chunk_intersect(const LaneSweep& sweep, std::size_t begin,
                            std::size_t end, double slope,
                            std::span<double> out, std::int64_t& scalar_fixups,
                            std::int64_t& saturations) const;

  std::vector<Entry> entries_;
  // Batch plan for intersect_all(), grouped at compile time: one lane per
  // closed-form family (unwrapped entries only), bisection lanes for the
  // vetted unimodal/stepped entries, and an index list for everything else.
  BatchLane lane_constant_;
  BatchLane lane_linear_;
  BatchLane lane_power_;
  BatchLane lane_exp_;
  BatchLane lane_unimodal_;
  SteppedLane lane_stepped_;
  std::vector<std::uint32_t> batch_other_;
  // Piecewise SoA slabs (all functions concatenated; entry.offset/count
  // delimit a function's breakpoints, segment i spans [i, i+1]):
  std::vector<double> px_;  ///< breakpoint sizes
  std::vector<double> ps_;  ///< breakpoint speeds
  std::vector<double> pm_;  ///< per-segment slopes (count-1 per function)
  // Stepped pool:
  std::vector<SteppedSpeed::Step> steps_;
  // Auxiliary analytic parameters that overflow Entry::a..d (Unimodal):
  std::vector<double> aux_;
  std::size_t generic_entries_ = 0;
  std::uint64_t fingerprint_ = 0;
};

namespace detail {

/// One step of the fingerprint hash: folds a whole 64-bit word into `h`.
/// For a fixed `h` it is a bijection in `v` (xor, then an odd multiply and
/// an xor-shift, each invertible), and for a fixed `v` a bijection in `h`,
/// so a single differing word anywhere in a list always survives to the
/// final hash.
constexpr std::uint64_t fingerprint_mix(std::uint64_t h,
                                        std::uint64_t v) noexcept {
  h = (h ^ v) * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 32);
}

/// Doubles are hashed by bit pattern, never by value.
inline std::uint64_t fingerprint_mix_bits(std::uint64_t h, double v) noexcept {
  return fingerprint_mix(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace detail

/// Compiled counterparts of the SpeedList helpers in core/partition.hpp,
/// run on `ctx` and counted into ctx->counters (nullptr: a default context,
/// counts dropped). A line is evaluated through one intersect_all sweep, so
/// with the scalar kernels the numbers are bit-identical to the SpeedList
/// overloads; detect_bracket shares its Figure-18 body with the SpeedList
/// overload. `ctx` is deliberately not defaulted: two-argument calls must
/// keep resolving to the SpeedList overloads (e.g. detect_bracket({}, n)).
std::vector<double> sizes_at(const CompiledSpeedList& speeds, double slope,
                             SolveContext* ctx);
double total_size_at(const CompiledSpeedList& speeds, double slope,
                     SolveContext* ctx);
SlopeBracket detect_bracket(const CompiledSpeedList& speeds, std::int64_t n,
                            SolveContext* ctx);

/// Batched counterpart of `speeds.speed(i, xs[i])` per entry (one
/// CompiledSpeedList::speed_all sweep, counted like p boundary
/// evaluations). The fine-tune epilogue's seeding pass.
std::vector<double> speeds_at(const CompiledSpeedList& speeds,
                              std::span<const double> xs, SolveContext* ctx);

/// True when the build carries the vector kernels at all (FPM_SIMD=ON).
bool simd_kernels_available() noexcept;

/// The backend of the default context (SolveContext()).
SimdBackend active_simd_backend() noexcept;

}  // namespace fpm::core
