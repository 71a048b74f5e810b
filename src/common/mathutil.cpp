#include "common/mathutil.hpp"

#include <bit>
#include <cmath>

#include "common/assert.hpp"

namespace ccg {

int ceil_log2(std::uint64_t x) {
  CCG_CHECK(x >= 1);
  if (x == 1) return 0;
  return 64 - std::countl_zero(x - 1);
}

int log_star(double x) {
  int k = 0;
  while (x > 1.0) {
    x = std::log2(x);
    ++k;
  }
  return k;
}

double log_pow_1_1(double x) {
  if (x <= 1.0) return 0.0;
  return std::pow(std::log2(x), 1.1);
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  CCG_CHECK(b > 0 && a >= 0);
  return (a + b - 1) / b;
}

}  // namespace ccg
