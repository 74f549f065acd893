// The unified partitioner engine: every member of the partitioning family
// (basic, modified, combined, interpolation, bounded) is registered under a
// string id in a process-wide registry, and consumers select one at runtime
// through a PartitionPolicy value instead of hard-coding a call. The policy
// carries the algorithm id, an options variant, an optional step-trace
// observer, and (for the bounded algorithm) per-processor capacity bounds —
// everything a layer needs to delegate the "which partitioner, tuned how"
// decision to its caller, a spec file, or a CLI flag.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/bisection.hpp"
#include "core/bounded.hpp"
#include "core/combined.hpp"
#include "core/compiled.hpp"
#include "core/interpolation.hpp"
#include "core/modified.hpp"
#include "core/observer.hpp"
#include "core/partition.hpp"

namespace fpm::core {

/// Per-algorithm tuning knobs. std::monostate selects the algorithm's
/// defaults; a non-matching alternative is rejected at dispatch with
/// std::invalid_argument.
using AlgorithmOptions =
    std::variant<std::monostate, BasicBisectionOptions,
                 ModifiedBisectionOptions, CombinedOptions,
                 InterpolationOptions, BoundedOptions>;

/// A value describing which partitioner to run and how. The default policy
/// (combined algorithm, default options, no observer) reproduces
/// partition_combined(speeds, n) bit for bit.
struct PartitionPolicy {
  /// Registry id (see partitioner_registry().ids()).
  std::string algorithm = kAlgorithmCombined;
  /// Tuning knobs; monostate = the algorithm's defaults.
  AlgorithmOptions options{};
  /// When non-empty, installed into the dispatched options so every
  /// bracket/slope decision of the search is reported (core/observer.hpp).
  SearchObserver observer{};
  /// Per-processor capacity bounds, used by the "bounded" algorithm only.
  /// Empty: derived from each curve's max_size() (the paper's point b, the
  /// size at which the processor is effectively paging to a halt).
  std::vector<std::int64_t> bounds{};
  /// Warm-start hint from a previous solve of a nearby problem, installed
  /// into the dispatched options like the observer. The result stays
  /// bit-identical with or without it (a hint only narrows the search
  /// bracket), which is why format_policy() deliberately ignores it — two
  /// policies differing only in the hint are the same cache key.
  std::optional<PartitionHint> hint{};
};

/// Static description of a registered algorithm.
struct PartitionerInfo {
  std::string id;          ///< registry key, also PartitionStats::algorithm
  std::string summary;     ///< one-line description for CLIs
  std::string complexity;  ///< asymptotic cost in intersection solves
  bool needs_bounds = false;  ///< consumes PartitionPolicy::bounds
};

/// String-keyed dispatch table over the partitioner family.
class PartitionerRegistry {
 public:
  using Runner = std::function<PartitionResult(
      const CompiledSpeedList&, std::int64_t, const PartitionPolicy&,
      const SolveContext&)>;

  /// Registers an algorithm; ids must be unique.
  void add(PartitionerInfo info, Runner runner);

  /// All registered algorithms, in registration order.
  const std::vector<PartitionerInfo>& entries() const noexcept {
    return infos_;
  }
  /// The registered ids, in registration order.
  std::vector<std::string> ids() const;
  /// Comma-separated id list, for error messages and usage text.
  std::string joined_ids() const;
  /// Lookup; nullptr when the id is unknown.
  const PartitionerInfo* find(std::string_view id) const;
  bool contains(std::string_view id) const { return find(id) != nullptr; }

  /// Dispatches to the algorithm named by policy.algorithm. Throws
  /// std::invalid_argument naming the valid ids when the id is unknown, or
  /// when policy.options holds a different algorithm's options.
  PartitionResult run(const CompiledSpeedList& models, std::int64_t n,
                      const PartitionPolicy& policy,
                      const SolveContext& ctx) const;

 private:
  std::vector<PartitionerInfo> infos_;
  std::vector<Runner> runners_;
};

/// The process-wide registry holding the five family members:
/// basic, modified, combined, interpolation, bounded.
const PartitionerRegistry& partitioner_registry();

/// The engine entry point every consumer layer calls: partitions n elements
/// over the listed speeds with the algorithm selected by `policy`. The
/// default policy is exactly partition_combined(speeds, n). Compiles the
/// list once and forwards to the compiled overload.
PartitionResult partition(const SpeedList& speeds, std::int64_t n,
                          const PartitionPolicy& policy = {});

/// The same over an already-compiled model (e.g. the server's, compiled
/// once per missed request): no further walk over the models, and the
/// result is identical to partition() over the list `models` was compiled
/// from. The original SpeedFunction objects must still be alive. `ctx`'s
/// kernel table and executor run every sweep of the solve; the solve counts
/// into its own copy of it (reported in PartitionStats), so one context
/// can serve many solves.
PartitionResult partition(const CompiledSpeedList& models, std::int64_t n,
                          const PartitionPolicy& policy = {},
                          const SolveContext& ctx = SolveContext());

/// Parses a policy from an id plus "key value" token pairs — the grammar
/// shared by spec files (`policy combined stall_window 4`) and CLI flags.
/// Accepted keys per algorithm:
///   basic          bisect_angles, max_iterations
///   modified       max_iterations
///   combined       stall_window, bisect_angles, max_iterations
///   interpolation  safeguard_margin, max_iterations
///   bounded        stall_window, bisect_angles, max_iterations (inner solve)
/// Throws std::invalid_argument on an unknown id (naming the valid ids),
/// unknown key, dangling key, or malformed value.
PartitionPolicy parse_policy(std::string_view algorithm,
                             std::span<const std::string> tokens = {});

/// Inverse of parse_policy: the id followed by the keys that differ from
/// the algorithm's defaults (round-trips through parse_policy exactly:
/// floating-point values print in their shortest round-trip form, so
/// policies one ULP apart format, and cache-key, differently).
std::string format_policy(const PartitionPolicy& policy);

}  // namespace fpm::core
