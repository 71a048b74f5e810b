// Small numeric helpers shared across modules.
#pragma once

#include <cstdint>

namespace ccg {

// ceil(log2 x) for x >= 1 (0 for x == 1).
int ceil_log2(std::uint64_t x);

// Iterated logarithm: number of times log2 must be applied to reach <= 1.
int log_star(double x);

// Natural-log based log(x)^1.1, the paper's ell parameter shape (Eq. 1).
double log_pow_1_1(double x);

// Integer ceil division for non-negative values.
std::int64_t ceil_div(std::int64_t a, std::int64_t b);

}  // namespace ccg
