// Pseudo-random tool implementations (paper, Appendix C).
//
// * KWiseHash        — k-wise independent polynomial hashing over the
//                      Mersenne prime 2^61-1. Description size: k words.
// * MinWiseHash      — (eps, s)-min-wise independent family per Lemma C.2:
//                      an O(log 1/eps)-wise independent polynomial family,
//                      describable in O(log N * log 1/eps) bits.
// * FeistelPermutation — pseudorandom permutation of [n] keyed by an
//                      O(log n)-bit seed; substitutes the paper's
//                      pseudorandom permutation family in the synchronized
//                      color trial (Lemma 4.13 / Appendix D.9).
#pragma once

#include <cstdint>
#include <array>
#include <vector>

#include "common/rng.hpp"

namespace ccg {

// k-wise independent hash [2^61-1] -> [2^61-1], evaluated as a degree-(k-1)
// polynomial with random coefficients. Coefficients live inline (k is
// Theta(log 1/eps) everywhere this family appears), so constructing one
// hash per trial inside a parallel shard touches no heap.
class KWiseHash {
 public:
  KWiseHash(int k, Rng& rng);

  std::uint64_t operator()(std::uint64_t x) const;

  // Number of bits needed to describe this function (k coefficients of
  // 61 bits each); what a leader must broadcast to share the function.
  int description_bits() const;

  static constexpr std::uint64_t kPrime = (1ULL << 61) - 1;
  static constexpr int kMaxK = 64;

 private:
  std::array<std::uint64_t, kMaxK> coeffs_;
  int k_ = 0;
};

// Min-wise independent family (Definition C.1 / Lemma C.2): hash [n] -> [M]
// such that the argmin over any small set is nearly uniform. Implemented as
// an O(log 1/eps)-wise independent polynomial reduced mod M.
class MinWiseHash {
 public:
  // eps: min-wise error; the family uses Theta(log 1/eps) wise independence.
  MinWiseHash(std::uint64_t range, double eps, Rng& rng);

  std::uint64_t operator()(std::uint64_t x) const;
  int description_bits() const;

 private:
  KWiseHash hash_;
  std::uint64_t range_;
};

// Feistel permutation over [0, n): bijective for any n (cycle walking on
// a power-of-two domain), keyed by one 64-bit seed. Uses 8 rounds plus
// extra rounds on tiny domains, where few-round Feistel networks are
// measurably non-uniform (see test_hashing_stats.cpp).
class FeistelPermutation {
 public:
  FeistelPermutation(std::uint64_t n, std::uint64_t seed);

  std::uint64_t operator()(std::uint64_t x) const;  // position -> value
  std::uint64_t size() const { return n_; }
  static constexpr int description_bits() { return 64; }

 private:
  std::uint64_t permute_pow2(std::uint64_t x) const;

  std::uint64_t n_;
  int half_bits_;
  std::vector<std::uint64_t> keys_;
};

}  // namespace ccg
