// Internal shared state for the bracketing line search used by the basic,
// modified, combined and interpolation partitioning algorithms, plus the
// compiled-model entry points of the registry algorithms. Not part of the
// public API; include only from core/*.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/bisection.hpp"
#include "core/bounded.hpp"
#include "core/combined.hpp"
#include "core/compiled.hpp"
#include "core/finetune.hpp"
#include "core/interpolation.hpp"
#include "core/modified.hpp"
#include "core/observer.hpp"
#include "core/partition.hpp"

namespace fpm::core::detail {

/// The registry algorithms over a compiled model, run on `ctx`. The public
/// partition_*(const SpeedList&, ...) functions compile once and forward
/// here on a default context; core::partition(const CompiledSpeedList&,
/// ...) dispatches here directly. `models` must outlive the call.
PartitionResult solve_basic(const CompiledSpeedList& models, std::int64_t n,
                            const BasicBisectionOptions& opts,
                            const SolveContext& ctx);
PartitionResult solve_modified(const CompiledSpeedList& models,
                               std::int64_t n,
                               const ModifiedBisectionOptions& opts,
                               const SolveContext& ctx);
PartitionResult solve_combined(const CompiledSpeedList& models,
                               std::int64_t n, const CombinedOptions& opts,
                               const SolveContext& ctx);
PartitionResult solve_interpolation(const CompiledSpeedList& models,
                                    std::int64_t n,
                                    const InterpolationOptions& opts,
                                    const SolveContext& ctx);
PartitionResult solve_bounded(const CompiledSpeedList& models, std::int64_t n,
                              std::span<const std::int64_t> bounds,
                              const BoundedOptions& opts,
                              const SolveContext& ctx);

/// The all-zero answer every algorithm returns for n <= 0.
PartitionResult zero_result(const char* algorithm, std::size_t p);

/// The region between two lines through the origin, tracked as the slope
/// interval together with the per-processor intersection coordinates.
///
/// The search runs on one compiled model it does not own: bracket
/// detection, line splits, the modified step's speed probe and the
/// fine-tune epilogue all evaluate through the CompiledSpeedList kernels
/// on the search's own copy of the caller's SolveContext and count into
/// its counters, so the PartitionStats accounting is the
/// SpeedFunction-boundary count of every evaluation the search asked for.
class SearchState {
 public:
  /// Initializes from the Figure-18 bracket and solves both lines. The
  /// observer pointer, when non-null and pointing at a non-empty function,
  /// receives one SearchStep per bracket/slope decision; it must outlive
  /// this object. A usable `hint` replaces the cold bracket with a tight
  /// verified one around the hinted slope (see PartitionHint); verification
  /// failure falls back to the cold bracket, so the search result is
  /// bit-identical with or without the hint. `models` must outlive this
  /// object; `ctx` is copied with its counters zeroed.
  SearchState(const CompiledSpeedList& models, std::int64_t n,
              const SolveContext& ctx = SolveContext(),
              const SearchObserver* observer = nullptr,
              const PartitionHint* hint = nullptr);

  /// Per-processor intersections with the steep line (sum <= n).
  const std::vector<double>& small() const noexcept { return small_; }
  /// Per-processor intersections with the shallow line (sum >= n).
  const std::vector<double>& large() const noexcept { return large_; }

  double hi_slope() const noexcept { return bracket_.hi_slope; }
  double lo_slope() const noexcept { return bracket_.lo_slope; }
  int iterations() const noexcept { return iterations_; }
  int intersections() const noexcept { return intersections_; }

  /// The context the search evaluates on and counts into (so far, e.g.
  /// counters.bracket_saturations with every chunk of a split sweep).
  SolveContext& context() noexcept { return ctx_; }

  /// Ends the search: runs the Figure-9 fine-tune over the steep line (the
  /// batched compiled overload, counted into this search's counters) and
  /// returns it with the search's PartitionStats. speed_evals and
  /// intersect_solves count every evaluation at the SpeedFunction
  /// boundary, bracket probes included; the search_* fields stop before
  /// the fine-tune. `hint` is the one the search was started with; it
  /// supplies iterations_saved on a hit.
  PartitionResult finish(const char* algorithm, std::int64_t n,
                         const std::optional<PartitionHint>& hint);

  /// Count of integers k with small[i] < k <= large[i]: the candidate
  /// solutions the i-th graph still contributes to the solution space.
  /// Both floors saturate at 2^62, so a line far beyond any integer size
  /// (a cold bracket's shallow side can sit at 1e20) still yields a valid
  /// count; below that bound the count is exact.
  std::int64_t interior_count(std::size_t i) const;

  /// Sum of interior_count over all processors, saturating at INT64_MAX.
  std::int64_t total_interior() const;

  /// The paper's stopping criterion: no processor bracket contains an
  /// integer strictly inside.
  bool converged() const;

  /// One basic-bisection step: split the slope interval at the (angle or
  /// tangent) midpoint and keep the half containing the optimum.
  void step_basic(bool bisect_angles);

  /// One modified-algorithm step: pick the processor with the most interior
  /// candidates, draw the line through the midpoint of its size bracket,
  /// and shrink the region with it. Falls back to a tangent bisection when
  /// the midpoint line degenerates numerically.
  void step_modified();

  /// One step with a caller-chosen slope (used by the interpolation
  /// search); slopes outside the open bracket are replaced by a tangent
  /// bisection.
  void step_custom(double slope);

 private:
  /// Evaluates the line of slope `c`, then assigns it to the steep or
  /// shallow side depending on whether its total size is below n.
  void split_at(double slope, SearchStepKind kind,
                std::size_t processor = kNoProcessor);

  /// Records an interval at round-off width where no usable split existed
  /// (the attempted slope is logged; the bracket is unchanged).
  void degenerate_step(double slope);

  /// Attempts to open a verified bracket around the hinted slope; on
  /// success fills bracket_/small_/large_ and returns true. On failure the
  /// members are untouched and the caller runs the cold detection.
  bool try_warm_bracket(const PartitionHint& hint, std::int64_t n);

  bool observing() const { return observer_ && *observer_; }
  void emit(SearchStepKind kind, double slope, bool kept_low,
            std::size_t processor) const;

  const CompiledSpeedList& models_;
  double n_;
  SlopeBracket bracket_;
  std::vector<double> small_;
  std::vector<double> large_;
  int iterations_ = 0;
  int intersections_ = 0;
  SolveContext ctx_;
  const SearchObserver* observer_ = nullptr;
  WarmStart warmstart_ = WarmStart::None;
};

}  // namespace fpm::core::detail
