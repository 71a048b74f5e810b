#include "common/rng.hpp"

#include <bit>

namespace ccg {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t x) {
  std::uint64_t s = x;
  return splitmix64(s);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : s_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // bound == 0 is a caller bug (an empty sampling window); the check
  // throws rather than hitting `% 0` UB. Call sites where the window can
  // legitimately empty out (e.g. a clique palette with no free colors in
  // put-aside coloring) must skip the draw instead — see
  // src/color/putaside.cpp.
  CCG_CHECK(bound > 0);
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

int Rng::next_geometric_half() {
  // Count consecutive 1-bits across 64-bit words; each bit is an
  // independent Bernoulli(1/2) "success".
  int total = 0;
  for (;;) {
    const std::uint64_t w = next_u64();
    const int ones = std::countr_one(w);
    total += ones;
    if (ones < 64) return total;
    CCG_CHECK(total < 1 << 20);  // astronomically unlikely; catches RNG bugs
  }
}

Rng Rng::split() { return Rng(next_u64() ^ 0xD1B54A32D192ED03ULL); }

Rng stream_rng(std::uint64_t seed, std::uint64_t round,
               std::uint64_t entity) {
  // Three chained SplitMix64 finalizers give full avalanche per key word;
  // the leading constant separates this key space from plain Rng(seed)
  // seeding. mix64 is a bijection, so for a fixed (seed, round) distinct
  // entities can never collide.
  std::uint64_t h = mix64(seed ^ kStreamRngTag);
  h = mix64(h ^ round);
  h = mix64(h ^ entity);
  return Rng(h);
}

std::vector<int> Rng::permutation(int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j =
        static_cast<int>(next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  }
  return p;
}

}  // namespace ccg
