#include "core/modified.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/detail/search_state.hpp"

namespace fpm::core {

namespace detail {

PartitionResult solve_modified(const CompiledSpeedList& models, std::int64_t n,
                               const ModifiedBisectionOptions& opts,
                               const SolveContext& ctx) {
  if (models.size() == 0)
    throw std::invalid_argument("partition_modified: no speeds");
  if (n <= 0) return zero_result(kAlgorithmModified, models.size());
  SearchState state(models, n, ctx, &opts.observer,
                    opts.hint ? &*opts.hint : nullptr);
  // The guaranteed bound: each p steps halve the candidate count of at most
  // p·n lines, so p·log2(p·n) steps suffice; slack covers the bracket setup.
  const double pd = static_cast<double>(models.size());
  const int bound = static_cast<int>(
      pd * (std::log2(static_cast<double>(n) * pd) + 4.0)) + 64;
  const int cap = std::min(opts.max_iterations, bound);
  while (!state.converged() && state.iterations() < cap)
    state.step_modified();
  return state.finish(kAlgorithmModified, n, opts.hint);
}

}  // namespace detail

PartitionResult partition_modified(const SpeedList& speeds, std::int64_t n,
                                   const ModifiedBisectionOptions& opts) {
  return detail::solve_modified(CompiledSpeedList::compile(speeds), n, opts,
                                {});
}

}  // namespace fpm::core
