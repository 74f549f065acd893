#include "core/bisection.hpp"

#include <cmath>
#include <stdexcept>

#include "core/detail/search_state.hpp"

namespace fpm::core {

bool bracket_converged(std::span<const double> small,
                       std::span<const double> large) {
  for (std::size_t i = 0; i < small.size(); ++i) {
    double k = std::floor(large[i]);
    if (k == large[i]) k -= 1.0;
    if (k > small[i]) return false;
  }
  return true;
}

namespace detail {

PartitionResult solve_basic(const CompiledSpeedList& models, std::int64_t n,
                            const BasicBisectionOptions& opts,
                            const SolveContext& ctx) {
  if (models.size() == 0)
    throw std::invalid_argument("partition_basic: no speeds");
  if (n <= 0) return zero_result(kAlgorithmBasic, models.size());
  SearchState state(models, n, ctx, &opts.observer,
                    opts.hint ? &*opts.hint : nullptr);
  while (!state.converged() && state.iterations() < opts.max_iterations)
    state.step_basic(opts.bisect_angles);
  return state.finish(kAlgorithmBasic, n, opts.hint);
}

}  // namespace detail

PartitionResult partition_basic(const SpeedList& speeds, std::int64_t n,
                                const BasicBisectionOptions& opts) {
  return detail::solve_basic(CompiledSpeedList::compile(speeds), n, opts, {});
}

}  // namespace fpm::core
