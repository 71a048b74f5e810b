// Unit + property tests: fingerprints (Section 5 of the paper).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cluster/cluster_graph.hpp"
#include "cluster/runtime.hpp"
#include "graph/generators.hpp"
#include "sketch/approx_count.hpp"
#include "sketch/fingerprint.hpp"

namespace ccg::sketch {
namespace {

TEST(Fingerprint, CombineIsMax) {
  Fingerprint a{{1, 5, kEmpty}};
  Fingerprint b{{2, 3, 4}};
  combine_into(a, b);
  EXPECT_EQ(a.maxima, (std::vector<int>{2, 5, 4}));
}

TEST(Fingerprint, EmptySetDetection) {
  Fingerprint fp;
  reset_empty(4, &fp);
  EXPECT_TRUE(fp.empty_set());
  Rng rng(1);
  sample_fingerprint_into(4, rng, &fp);
  EXPECT_FALSE(fp.empty_set());
  reset_empty(8, &fp);
  EXPECT_EQ(estimate_count(fp), 0.0);
}

// The fingerprint of d fresh elements: the coordinate-wise max of d raw
// samples drawn from rng in turn.
Fingerprint fingerprint_of(int d, int t, Rng& rng) {
  Fingerprint fp, x;
  reset_empty(t, &fp);
  for (int j = 0; j < d; ++j) {
    sample_fingerprint_into(t, rng, &x);
    combine_into(fp, x);
  }
  return fp;
}

// Lemma 5.2: d̂ within (1 ± xi) d with failure prob ~ 6 exp(-xi^2 t / 200).
// With calibrated t the observed error should be well inside xi for most
// runs; we test the median over repetitions to keep flakiness ~0.
class EstimatorAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(EstimatorAccuracy, MedianErrorWithinBound) {
  const int d = GetParam();
  const int t = 1500;
  const double xi = 0.25;
  Rng rng(0xC0FFEE + d);
  std::vector<double> errors;
  for (int rep = 0; rep < 15; ++rep) {
    const double est = estimate_count(fingerprint_of(d, t, rng));
    errors.push_back(std::abs(est - d) / d);
  }
  std::nth_element(errors.begin(), errors.begin() + errors.size() / 2,
                   errors.end());
  EXPECT_LT(errors[errors.size() / 2], xi) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(DSweep, EstimatorAccuracy,
                         ::testing::Values(1, 2, 5, 17, 100, 1000, 20000));

TEST(Fingerprint, UniqueMaximumProbabilityAtLeastTwoThirds) {
  // Lemma 5.3 with lambda = 1/2: collision prob <= (1-l)^2/(1-l^2) = 1/3.
  Rng rng(7);
  const int trials = 20000;
  for (const int d : {2, 10, 200}) {
    int unique = 0;
    for (int rep = 0; rep < trials; ++rep) {
      int best = -1, best_count = 0;
      for (int j = 0; j < d; ++j) {
        const int x = rng.next_geometric_half();
        if (x > best) {
          best = x;
          best_count = 1;
        } else if (x == best) {
          ++best_count;
        }
      }
      if (best_count == 1) ++unique;
    }
    EXPECT_GT(static_cast<double>(unique) / trials, 2.0 / 3.0 - 0.02)
        << "d=" << d;
  }
}

TEST(Fingerprint, ArgmaxUniform) {
  // Lemma 5.4: conditioned on uniqueness, the argmax is uniform.
  Rng rng(11);
  const int d = 8;
  std::vector<int> wins(d, 0);
  int total = 0;
  for (int rep = 0; rep < 40000; ++rep) {
    int best = -1, best_count = 0, arg = -1;
    for (int j = 0; j < d; ++j) {
      const int x = rng.next_geometric_half();
      if (x > best) {
        best = x;
        best_count = 1;
        arg = j;
      } else if (x == best) {
        ++best_count;
      }
    }
    if (best_count == 1) {
      ++wins[arg];
      ++total;
    }
  }
  for (const int w : wins) {
    EXPECT_NEAR(static_cast<double>(w) / total, 1.0 / d, 0.01);
  }
}

TEST(Codec, RoundTrip) {
  Rng rng(3);
  for (const int d : {1, 10, 1000}) {
    const Fingerprint fp = fingerprint_of(d, 32, rng);
    BitWriter w;
    encode_fingerprint(fp, w);
    BitReader r(w);
    const auto back = decode_fingerprint(r, 32);
    EXPECT_EQ(fp, back);
  }
}

TEST(Codec, RoundTripWithEmptyCoordinates) {
  Fingerprint fp{{3, kEmpty, 0, kEmpty, 7}};
  BitWriter w;
  encode_fingerprint(fp, w);
  BitReader r(w);
  EXPECT_EQ(decode_fingerprint(r, 5), fp);
}

TEST(Codec, SizeIsLinearInT) {
  // Lemma 5.6: O(t + loglog d) bits. Check measured sizes scale ~linearly
  // in t and beat the naive fixed-width encoding for large d.
  Rng rng(5);
  const int d = 100000;
  for (const int t : {32, 64, 128, 256}) {
    const Fingerprint fp = fingerprint_of(d, t, rng);
    const int bits = encoded_bits(fp);
    EXPECT_LT(bits, 8 * t + 64) << "t=" << t;  // ~4.2 bits/coordinate avg
    EXPECT_LT(bits, naive_encoded_bits(fp));
  }
}

TEST(ApproxCount, DegreesOnCongestLayout) {
  Rng rng(17);
  const auto h = graph::gnm(300, 3000, rng);
  const auto cg = cluster::ClusterGraph::singleton(h);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  CountOptions opt;
  opt.t = 1200;
  std::vector<Fingerprint> raw;
  sample_raw_fingerprints_stream(h.n(), opt.t, StreamCtx(rng.next_u64()),
                                 nullptr, &raw);
  CountResult res;
  neighborhood_counts_into(
      rt, raw, [](int, int) { return true; }, opt, &res);
  int within = 0;
  for (int v = 0; v < h.n(); ++v) {
    const double err =
        std::abs(res.estimate[v] - h.degree(v)) / std::max(1, h.degree(v));
    if (err < 0.3) ++within;
  }
  EXPECT_GT(within, 0.9 * h.n());
  EXPECT_GE(ledger.h_rounds(), 1);
  EXPECT_GT(res.max_message_bits, 0);
}

TEST(ApproxCount, PredicateFiltersNeighbors) {
  Rng rng(19);
  const auto h = graph::complete(64);
  const auto cg = cluster::ClusterGraph::singleton(h);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  CountOptions opt;
  opt.t = 1200;
  // Count only even neighbors: true value is 32 or 31.
  std::vector<Fingerprint> raw;
  sample_raw_fingerprints_stream(h.n(), opt.t, StreamCtx(rng.next_u64()),
                                 nullptr, &raw);
  CountResult res;
  neighborhood_counts_into(
      rt, raw, [](int, int u) { return u % 2 == 0; }, opt, &res);
  for (int v = 0; v < 8; ++v) {
    const double truth = (v % 2 == 0) ? 31 : 32;
    EXPECT_NEAR(res.estimate[v], truth, truth * 0.5);
  }
}

TEST(ApproxCount, MessageBitsStayNearLinearInT) {
  // The measured largest partial aggregate should be O(t), not
  // O(t log log d): the deviation codec at work across support trees.
  Rng rng(23);
  const auto h = graph::gnm(200, 2000, rng);
  cluster::ExpandSpec spec;
  spec.shape = cluster::ClusterShape::kRandomTree;
  spec.size = 4;
  const auto cg = cluster::ClusterGraph::expand(h, spec, rng);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  CountOptions opt;
  opt.t = 256;
  std::vector<Fingerprint> raw;
  sample_raw_fingerprints_stream(h.n(), opt.t, StreamCtx(rng.next_u64()),
                                 nullptr, &raw);
  CountResult res;
  neighborhood_counts_into(
      rt, raw, [](int, int) { return true; }, opt, &res);
  EXPECT_LT(res.max_message_bits, 8 * opt.t + 64);
}

TEST(ApproxCount, EdgeUnionEstimates) {
  Rng rng(29);
  // Two cliques sharing no vertices, connected by a matching: for an
  // intra-clique edge |N(u) ∪ N(v)| ~ clique size + external bits.
  const auto h = graph::complete(40);
  const auto cg = cluster::ClusterGraph::singleton(h);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  CountOptions opt;
  opt.t = 1500;
  std::vector<Fingerprint> raw;
  sample_raw_fingerprints_stream(h.n(), opt.t, StreamCtx(rng.next_u64()),
                                 nullptr, &raw);
  CountResult counts;
  neighborhood_counts_into(
      rt, raw, [](int, int) { return true; }, opt, &counts);
  std::vector<double> unions;
  edge_union_estimates_into(rt, counts, opt, &unions);
  // In K_40, |N(u) ∪ N(v)| = 40 for every edge.
  for (std::size_t e = 0; e < unions.size(); e += 50) {
    EXPECT_NEAR(unions[e], 40.0, 14.0);
  }
}

}  // namespace
}  // namespace ccg::sketch
