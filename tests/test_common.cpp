// Unit tests: rng, bitstream, mathutil, hashing, the timed harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/bitstream.hpp"
#include "common/hashing.hpp"
#include "common/json.hpp"
#include "common/latency.hpp"
#include "common/mathutil.hpp"
#include "common/rng.hpp"

namespace ccg {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SplitIndependent) {
  Rng a(42);
  Rng c = a.split();
  // The child stream must differ from the parent's continuation.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.next_u64() != c.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowUnbiasedRoughly) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.next_below(10)];
  for (const int c : counts) {
    EXPECT_NEAR(c, trials / 10.0, 5 * std::sqrt(trials));
  }
}

TEST(Rng, GeometricHalfDistribution) {
  // Pr[X >= k] = 2^-k (paper, Section 5.1).
  Rng rng(3);
  const int trials = 200000;
  std::vector<int> ge(12, 0);
  for (int i = 0; i < trials; ++i) {
    const int x = rng.next_geometric_half();
    for (int k = 0; k <= std::min(11, x); ++k) ++ge[k];
  }
  for (int k = 1; k <= 8; ++k) {
    const double expected = trials * std::pow(0.5, k);
    EXPECT_NEAR(ge[k], expected, 6 * std::sqrt(expected) + 8.0)
        << "at k=" << k;
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(9);
  const auto p = rng.permutation(100);
  std::set<int> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(*s.begin(), 0);
  EXPECT_EQ(*s.rbegin(), 99);
}

TEST(BitStream, RoundTripBits) {
  BitWriter w;
  w.write_bits(0b1011, 4);
  w.write_bits(0xFFFFFFFFFFFFFFFFULL, 64);
  w.write_bits(0, 1);
  w.write_bits(123456789, 32);
  EXPECT_EQ(w.bit_count(), 4 + 64 + 1 + 32);
  BitReader r(w);
  EXPECT_EQ(r.read_bits(4), 0b1011u);
  EXPECT_EQ(r.read_bits(64), 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(r.read_bits(1), 0u);
  EXPECT_EQ(r.read_bits(32), 123456789u);
}

TEST(BitStream, RoundTripUnaryAndGamma) {
  BitWriter w;
  for (int v : {0, 1, 5, 13}) w.write_unary(v);
  for (std::uint64_t v : {1ull, 2ull, 100ull, 65535ull}) w.write_gamma(v);
  BitReader r(w);
  for (int v : {0, 1, 5, 13}) EXPECT_EQ(r.read_unary(), v);
  for (std::uint64_t v : {1ull, 2ull, 100ull, 65535ull}) {
    EXPECT_EQ(r.read_gamma(), v);
  }
}

TEST(BitStream, OverrunThrows) {
  BitWriter w;
  w.write_bits(3, 2);
  BitReader r(w);
  r.read_bits(2);
  EXPECT_THROW(r.read_bits(1), ContractViolation);
}

TEST(MathUtil, Logs) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(1025), 11);
  EXPECT_EQ(log_star(1.0), 0);
  EXPECT_EQ(log_star(2.0), 1);
  EXPECT_EQ(log_star(16.0), 3);
  EXPECT_EQ(log_star(65536.0), 4);
  EXPECT_EQ(ceil_div(7, 3), 3);
  EXPECT_EQ(ceil_div(6, 3), 2);
  EXPECT_EQ(ceil_div(0, 3), 0);
}

TEST(Hashing, KWiseDeterministic) {
  Rng rng(5);
  KWiseHash h(4, rng);
  for (std::uint64_t x : {0ull, 1ull, 999ull}) {
    EXPECT_EQ(h(x), h(x));
  }
  EXPECT_EQ(h.description_bits(), 4 * 61);
}

TEST(Hashing, FeistelIsBijection) {
  for (const std::uint64_t n : {1ull, 2ull, 7ull, 64ull, 1000ull}) {
    FeistelPermutation pi(n, 0xABCDEF);
    std::set<std::uint64_t> image;
    for (std::uint64_t x = 0; x < n; ++x) {
      const auto y = pi(x);
      EXPECT_LT(y, n);
      image.insert(y);
    }
    EXPECT_EQ(image.size(), n);
  }
}

TEST(Hashing, FeistelSeedsDiffer) {
  FeistelPermutation a(100, 1), b(100, 2);
  int diff = 0;
  for (std::uint64_t x = 0; x < 100; ++x) {
    if (a(x) != b(x)) ++diff;
  }
  EXPECT_GT(diff, 50);
}

TEST(Hashing, MinWiseRoughlyUniformArgmin) {
  // Over random functions from the family, each element of a small set
  // should be the argmin with probability close to 1/|X|.
  Rng rng(11);
  const int set_size = 8;
  const int trials = 4000;
  std::vector<int> wins(set_size, 0);
  for (int t = 0; t < trials; ++t) {
    MinWiseHash h(1 << 20, 0.25, rng);
    int best = 0;
    std::uint64_t best_v = h(100);  // elements 100..107
    for (int i = 1; i < set_size; ++i) {
      const auto v = h(static_cast<std::uint64_t>(100 + i));
      if (v < best_v) {
        best = i;
        best_v = v;
      }
    }
    ++wins[best];
  }
  for (const int w : wins) {
    EXPECT_NEAR(w, trials / set_size, trials / set_size * 0.5);
  }
}

TEST(Timed, QuantilesInterpolateBetweenRanks) {
  const double three[] = {1, 2, 3};
  EXPECT_DOUBLE_EQ(sorted_quantile(three, 3, 0.25), 1.5);
  EXPECT_DOUBLE_EQ(sorted_quantile(three, 3, 0.5), 2);
  EXPECT_DOUBLE_EQ(sorted_quantile(three, 3, 0.75), 2.5);
  const double four[] = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(sorted_quantile(four, 4, 0.25), 17.5);
  EXPECT_DOUBLE_EQ(sorted_quantile(four, 4, 0.5), 25);
  EXPECT_DOUBLE_EQ(sorted_quantile(four, 4, 1), 40);
  const double one[] = {7};
  EXPECT_DOUBLE_EQ(sorted_quantile(one, 1, 0.75), 7);
}

TEST(Timed, StatsAreOrderedAtEveryRepCount) {
  for (const int reps : {1, 2, 3, kTimedMaxReps}) {
    int calls = 0;
    const auto st = timed([&] { ++calls; }, 2, reps);
    EXPECT_EQ(calls, reps + 2);
    EXPECT_EQ(st.reps, reps);
    EXPECT_LE(st.min_ns, st.p25_ns) << reps;
    EXPECT_LE(st.p25_ns, st.median_ns) << reps;
    EXPECT_LE(st.median_ns, st.p75_ns) << reps;
    EXPECT_LE(st.p75_ns, st.max_ns) << reps;
    EXPECT_LE(st.min_ns, st.mean_ns) << reps;
    EXPECT_LE(st.mean_ns, st.max_ns) << reps;
  }
  const auto none = timed([] {}, 0, 0);
  EXPECT_EQ(none.min_ns, 0);
  EXPECT_EQ(none.median_ns, 0);
  EXPECT_EQ(none.max_ns, 0);
  EXPECT_THROW(timed([] {}, 0, kTimedMaxReps + 1), ContractViolation);
}

TEST(JsonWriter, EscapesStringsToStrictJson) {
  // Error texts and file paths flow into reports verbatim; quotes,
  // backslashes, and control characters must come out as valid JSON.
  JsonWriter j;
  j.begin_object();
  j.key("s").value(std::string("a\"b\\c\nd\te\rf\x01g"));
  j.end_object();
  // (The writer has always emitted a leading newline — insignificant
  // whitespace to any JSON parser.)
  EXPECT_EQ(j.str(),
            "\n{\n  \"s\": \"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\"\n}\n");
}

}  // namespace
}  // namespace ccg
