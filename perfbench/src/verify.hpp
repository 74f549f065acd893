// Answer checks applied to every result the benchmark receives. They use
// only the virtual SpeedFunction definitions (the scalar oracle), so they
// hold whichever path produced the answer: SIMD backend, parallel sweep,
// warm start, cache hit, or a degraded rescale.
#pragma once

#include <cstdint>
#include <string>

#include "core/partition.hpp"

namespace fpmbench {

/// Empty when the answer passed; otherwise the first violation found.
using Violation = std::string;

/// A full answer: one count per processor, every count >= 0, counts sum to
/// n, and the O(p) exchange certificate
///     M = max_i t_i(x_i)  <=  min_j t_j(x_j + 1)
/// over the processors that can still take an element — every processor,
/// under the unbounded policies the workloads use. Any other allocation of
/// n elements gives some j at least x_j + 1 elements, so the certificate
/// proves the makespan M optimal.
Violation check_full(const fpm::core::SpeedList& speeds, std::int64_t n,
                     const fpm::core::Distribution& answer);

/// A degraded answer: one count per processor, every count >= 0, counts
/// sum to n, and its relative-error bound is finite and >= 0.
Violation check_degraded(const fpm::core::SpeedList& speeds, std::int64_t n,
                         const fpm::core::Distribution& answer,
                         double error_bound);

}  // namespace fpmbench
