#include "color/params.hpp"

#include <algorithm>
#include <cmath>

#include "common/mathutil.hpp"

namespace ccg::color {

double Params::ell(int n) const {
  return std::max(2.0, kEllFactor * log_pow_1_1(std::max(2, n)));
}

int Params::delta_low(int n) const {
  return static_cast<int>(std::ceil(kDeltaLowFactor * ell(n)));
}

int Params::reserved_cap(int delta) const {
  return std::max(1, static_cast<int>(reserved_cap_frac * delta));
}

int Params::ell_s(int n) const {
  return std::max(4, static_cast<int>(std::lround(ls_factor * ell(n))));
}

int Params::block_size(int n) const {
  return std::max(16,
                  static_cast<int>(std::lround(block_factor * ell_s(n))));
}

int Params::donation_samples(int n) const {
  const double lg = std::log2(std::max(4, n));
  const double lglg = std::max(1.0, std::log2(lg));
  return std::max(4, static_cast<int>(std::ceil(4.0 * lg / lglg)));
}

Params Params::defaults_for(int n, std::uint64_t seed) {
  Params p;
  p.seed = seed;
  // Detection margin: a planted block with external degree e and
  // anti-degree a needs roughly e + 2a + O(1) <= eps * Delta to register
  // as an almost-clique, so laptop-scale instances want a lenient eps.
  p.eps = 0.15;
  // Larger instances afford (and need) wider fingerprints; the paper's
  // t = Theta(xi^-2 log n) with laptop constants.
  const double lg = std::log2(std::max(4, n));
  p.fingerprint_t = std::max(64, static_cast<int>(16.0 * lg));
  return p;
}

}  // namespace ccg::color
