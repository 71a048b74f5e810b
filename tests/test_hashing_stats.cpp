// Statistical tests for the pseudo-random tools of Appendix C: these
// carry the synchronized color trial and the min-wise sampling of
// Algorithm 7, so their distributional quality is load-bearing.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/hashing.hpp"
#include "common/rng.hpp"

namespace ccg {
namespace {

TEST(KWise, MarginalUniformityChiSquared) {
  // Each output bucket of a fresh 4-wise hash should be hit uniformly.
  Rng rng(5);
  const int buckets = 16;
  const int trials = 8000;
  std::vector<int> counts(buckets, 0);
  for (int t = 0; t < trials; ++t) {
    KWiseHash h(4, rng);
    ++counts[static_cast<std::size_t>(h(12345) % buckets)];
  }
  const double expect = static_cast<double>(trials) / buckets;
  double chi2 = 0;
  for (const int c : counts) chi2 += (c - expect) * (c - expect) / expect;
  // dof = 15; reject only far beyond the 99.9% quantile (~37.7).
  EXPECT_LT(chi2, 60.0);
}

TEST(KWise, PairwiseIndependenceSpotCheck) {
  // Over random functions, Pr[h(x)=a and h(y)=b] ~ 1/M^2 for x != y.
  Rng rng(7);
  const int m = 8;
  const int trials = 60000;
  int joint = 0;
  for (int t = 0; t < trials; ++t) {
    KWiseHash h(3, rng);
    if (h(1) % m == 2 && h(2) % m == 5) ++joint;
  }
  const double p = static_cast<double>(joint) / trials;
  EXPECT_NEAR(p, 1.0 / (m * m), 4.0 * std::sqrt(1.0 / (m * m) / trials));
}

TEST(Feistel, PositionDistributionUniform) {
  // pi(0) over random seeds should be uniform over [n].
  const int n = 10;
  const int trials = 40000;
  std::vector<int> counts(n, 0);
  Rng rng(11);
  for (int t = 0; t < trials; ++t) {
    FeistelPermutation pi(n, rng.next_u64());
    ++counts[static_cast<std::size_t>(pi(0))];
  }
  const double expect = static_cast<double>(trials) / n;
  for (const int c : counts) {
    EXPECT_NEAR(c, expect, 6 * std::sqrt(expect));
  }
}

TEST(Feistel, PairJointDistributionRoughlyUniform) {
  // (pi(0), pi(1)) should cover ordered pairs without structure: check a
  // few fixed pairs appear with probability ~ 1/(n(n-1)).
  const int n = 8;
  const int trials = 60000;
  Rng rng(13);
  int hits_01 = 0, hits_70 = 0;
  for (int t = 0; t < trials; ++t) {
    FeistelPermutation pi(n, rng.next_u64());
    if (pi(0) == 0 && pi(1) == 1) ++hits_01;
    if (pi(0) == 7 && pi(1) == 0) ++hits_70;
  }
  const double expect = static_cast<double>(trials) / (n * (n - 1));
  EXPECT_NEAR(hits_01, expect, 6 * std::sqrt(expect) + 6);
  EXPECT_NEAR(hits_70, expect, 6 * std::sqrt(expect) + 6);
}

TEST(MinWise, ArgminFairOverRandomSubsets) {
  // Lemma C.2's operational property as used by Algorithm 7 step 8:
  // argmin over an arbitrary id subset is near-uniform.
  Rng rng(17);
  const std::vector<int> subset{3, 17, 42, 99, 512, 777};
  std::vector<int> wins(subset.size(), 0);
  const int trials = 9000;
  for (int t = 0; t < trials; ++t) {
    MinWiseHash h(1024, 0.25, rng);
    std::size_t best = 0;
    std::uint64_t best_v = h(static_cast<std::uint64_t>(subset[0]));
    for (std::size_t i = 1; i < subset.size(); ++i) {
      const auto v = h(static_cast<std::uint64_t>(subset[i]));
      if (v < best_v) {
        best = i;
        best_v = v;
      }
    }
    ++wins[best];
  }
  const double expect = static_cast<double>(trials) / subset.size();
  for (const int w : wins) {
    // (eps, s)-min-wise tolerance: within 50% of uniform.
    EXPECT_NEAR(w, expect, expect * 0.5);
  }
}

}  // namespace
}  // namespace ccg
