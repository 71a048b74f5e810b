#include "common/hashing.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/mathutil.hpp"

namespace ccg {

namespace {

// Multiplication mod 2^61-1 via 128-bit intermediate.
inline std::uint64_t mulmod_m61(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 prod =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
  std::uint64_t lo = static_cast<std::uint64_t>(prod) & KWiseHash::kPrime;
  std::uint64_t hi = static_cast<std::uint64_t>(prod >> 61);
  std::uint64_t s = lo + hi;
  if (s >= KWiseHash::kPrime) s -= KWiseHash::kPrime;
  return s;
}

inline std::uint64_t addmod_m61(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a + b;
  if (s >= KWiseHash::kPrime) s -= KWiseHash::kPrime;
  return s;
}

}  // namespace

KWiseHash::KWiseHash(int k, Rng& rng) : k_(k) {
  CCG_CHECK(k >= 1 && k <= kMaxK);
  for (int i = 0; i < k; ++i) {
    coeffs_[static_cast<std::size_t>(i)] = rng.next_below(kPrime);
  }
}

std::uint64_t KWiseHash::operator()(std::uint64_t x) const {
  x %= kPrime;
  std::uint64_t acc = 0;
  // Horner evaluation.
  for (int i = k_ - 1; i >= 0; --i) {
    acc = addmod_m61(mulmod_m61(acc, x),
                     coeffs_[static_cast<std::size_t>(i)]);
  }
  return acc;
}

int KWiseHash::description_bits() const { return k_ * 61; }

MinWiseHash::MinWiseHash(std::uint64_t range, double eps, Rng& rng)
    : hash_([&] {
        CCG_CHECK(eps > 0.0 && eps < 1.0);
        const int k = std::max(2, static_cast<int>(std::ceil(
                                      std::log2(1.0 / eps))));
        return KWiseHash(k, rng);
      }()),
      range_(range) {
  CCG_CHECK(range >= 1);
}

std::uint64_t MinWiseHash::operator()(std::uint64_t x) const {
  return hash_(x) % range_;
}

int MinWiseHash::description_bits() const { return hash_.description_bits(); }

FeistelPermutation::FeistelPermutation(std::uint64_t n, std::uint64_t seed)
    : n_(n) {
  CCG_CHECK(n >= 1);
  const int bits = std::max(2, ceil_log2(n));
  half_bits_ = (bits + 1) / 2;
  // Tiny domains need more rounds to approach a uniform permutation.
  const int rounds = bits >= 8 ? 8 : 8 + 2 * (8 - bits);
  keys_.resize(static_cast<std::size_t>(rounds));
  std::uint64_t s = seed;
  for (auto& key : keys_) key = splitmix64(s);
}

std::uint64_t FeistelPermutation::permute_pow2(std::uint64_t x) const {
  const std::uint64_t mask = (1ULL << half_bits_) - 1;
  std::uint64_t left = (x >> half_bits_) & mask;
  std::uint64_t right = x & mask;
  for (const std::uint64_t key : keys_) {
    const std::uint64_t f = mix64(right ^ key) & mask;
    const std::uint64_t new_left = right;
    right = left ^ f;
    left = new_left;
  }
  return (left << half_bits_) | right;
}

std::uint64_t FeistelPermutation::operator()(std::uint64_t x) const {
  CCG_CHECK(x < n_);
  // Cycle-walk until the image lands back inside [0, n).
  std::uint64_t y = permute_pow2(x);
  while (y >= n_) y = permute_pow2(y);
  return y;
}

}  // namespace ccg
