// Tests: the Section 9 low-degree path — regime selection, shattering
// behaviour, and the round-complexity shape of Theorem 1.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <queue>
#include <string>

#include "cluster/validate.hpp"
#include "color/primitives.hpp"
#include "helpers.hpp"
#include "lowdeg/lowdeg.hpp"

namespace ccg {
namespace {

color::Params lowdeg_params(int n, std::uint64_t seed) {
  auto p = color::Params::defaults_for(n, seed);
  p.eps = 0.2;
  p.use_fingerprint_acd = false;
  p.measure_bits = false;
  return p;
}

class LowDegRegimes : public ::testing::TestWithParam<int> {};

TEST_P(LowDegRegimes, AlwaysProperAcrossDeltas) {
  const int avg_deg = GetParam();
  Rng rng(100 + avg_deg);
  const int n = 1200;
  const auto g =
      graph::gnm(n, static_cast<std::int64_t>(n) * avg_deg / 2, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res = lowdeg::color_low_degree(rt, lowdeg_params(n, 7));
  cluster::check_proper_total(g, res.colors, res.num_colors);
  EXPECT_EQ(res.num_colors, g.max_degree() + 1);
}

INSTANTIATE_TEST_SUITE_P(DegreeSweep, LowDegRegimes,
                         ::testing::Values(4, 10, 24, 48, 90));

TEST(LowDeg, RoundsGrowSlowerThanLog2) {
  // Theorem 1.1's shape: H-rounds ~ polyloglog, i.e. far below log^2 n.
  std::vector<std::int64_t> rounds;
  std::vector<int> sizes{500, 4000, 32000};
  for (const int n : sizes) {
    Rng rng(3 + n);
    const double lg = std::log2(n);
    const auto g = graph::gnm(
        n, static_cast<std::int64_t>(n * lg * 0.7), rng);
    const auto cg = cluster::ClusterGraph::singleton(g);
    net::Ledger ledger(cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    const auto res = lowdeg::color_low_degree(rt, lowdeg_params(n, 9));
    cluster::check_proper_total(g, res.colors, res.num_colors);
    rounds.push_back(res.h_rounds);
  }
  // 64x more vertices must cost far less than the log^2 ratio (~2.6x);
  // allow 2x for noise but demand clear sub-log^2 growth.
  const double growth =
      static_cast<double>(rounds.back()) / std::max<std::int64_t>(1,
                                                                  rounds[0]);
  EXPECT_LT(growth, 2.0) << "rounds grew too fast: " << rounds[0] << " -> "
                         << rounds.back();
}

TEST(LowDeg, ShatteringLeavesSmallComponents) {
  // BEPS-style shattering: after O(loglog n) palette trials, uncolored
  // components should be tiny compared to n.
  Rng rng(21);
  const int n = 4000;
  const auto g = graph::gnm(n, 16000, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  color::State st(rt, lowdeg_params(n, 11));
  // Emulate the shattering prefix: loglog rounds of palette trials.
  std::vector<int> all(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
  const auto sampler = [&st](int v, Rng& rng2) -> int {
    std::vector<int> live;
    for (int c = 0; c < st.num_colors(); ++c) {
      if (!st.phi.neighbor_uses(st.h(), v, c)) live.push_back(c);
    }
    if (live.empty()) return -1;
    return live[static_cast<std::size_t>(
        rng2.next_below(static_cast<std::uint64_t>(live.size())))];
  };
  const int rounds = 2 * static_cast<int>(std::ceil(
                             std::log2(std::log2(n)))) +
                     2;
  color::try_color_rounds(st, &all, sampler, 0.8, rounds);

  // Largest uncolored component.
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  int largest = 0;
  for (int s = 0; s < n; ++s) {
    if (st.phi.colored(s) || seen[static_cast<std::size_t>(s)]) continue;
    int size = 0;
    std::queue<int> q;
    q.push(s);
    seen[static_cast<std::size_t>(s)] = 1;
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      ++size;
      for (const int u : g.neighbors(v)) {
        if (!st.phi.colored(u) && !seen[static_cast<std::size_t>(u)]) {
          seen[static_cast<std::size_t>(u)] = 1;
          q.push(u);
        }
      }
    }
    largest = std::max(largest, size);
  }
  EXPECT_LT(largest, n / 10) << "shattering failed to break the graph";
}

TEST(LowDeg, LogRegimeUsedForTinyDelta) {
  Rng rng(31);
  const int n = 2000;
  const auto g = graph::gnm(n, 4000, rng);  // Delta ~ 10 << 4 log n
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res = lowdeg::color_low_degree(rt, lowdeg_params(n, 13));
  cluster::check_proper_total(g, res.colors, res.num_colors);
  ASSERT_FALSE(res.phases.empty());
  EXPECT_EQ(res.phases.front().name, "lowdeg-logarithmic");
}

TEST(LowDeg, PolyRegimePhasesPresent) {
  Rng rng(33);
  graph::PlantedSpec spec;
  spec.delta = 70;
  spec.num_cliques = 2;
  spec.anti_deg = 2;
  spec.external_deg = 8;
  spec.num_sparse = 150;
  spec.sparse_avg_deg = 25.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res =
      lowdeg::color_low_degree(rt, lowdeg_params(planted.g.n(), 15));
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
  std::vector<std::string> names;
  for (const auto& pc : res.phases) names.push_back(pc.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "lowdeg-acd"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "lowdeg-sparse"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "lowdeg-noncabals"),
            names.end());
}

TEST(LowDeg, CompleteGraphEdgeCase) {
  // K_{n}: Delta = n-1, needs exactly n colors; the palette endgame must
  // not deadlock.
  const auto g = graph::complete(40);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res = lowdeg::color_low_degree(rt, lowdeg_params(40, 17));
  cluster::check_proper_total(g, res.colors, res.num_colors);
  EXPECT_EQ(res.num_colors, 40);
}

class FinisherAblation
    : public ::testing::TestWithParam<color::Params::Finisher> {};

TEST_P(FinisherAblation, EveryFinisherProducesProperColorings) {
  const auto finisher = GetParam();
  Rng rng(91);
  const int n = 1500;
  const auto g = graph::gnm(n, 9000, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  auto params = lowdeg_params(n, 21);
  params.finisher = finisher;
  const auto res = lowdeg::color_low_degree(rt, params);
  cluster::check_proper_total(g, res.colors, res.num_colors);
  if (finisher == color::Params::Finisher::kLinial) {
    // The Linial path never needs the safety net.
    EXPECT_EQ(res.fallback_count, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Finishers, FinisherAblation,
    ::testing::Values(color::Params::Finisher::kRandomizedList,
                      color::Params::Finisher::kLinial,
                      color::Params::Finisher::kGhaffariKuhn),
    [](const auto& info) {
      switch (info.param) {
        case color::Params::Finisher::kRandomizedList:
          return std::string("randomized");
        case color::Params::Finisher::kLinial:
          return std::string("linial");
        case color::Params::Finisher::kGhaffariKuhn:
          return std::string("ghaffari_kuhn");
      }
      return std::string("unknown");
    });

TEST(LowDeg, DeterministicFinisherOnDensePlanted) {
  Rng rng(93);
  graph::PlantedSpec spec;
  spec.delta = 50;
  spec.num_cliques = 2;
  spec.anti_deg = 2;
  spec.external_deg = 8;
  spec.num_sparse = 100;
  spec.sparse_avg_deg = 20.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  auto params = lowdeg_params(planted.g.n(), 23);
  params.finisher = color::Params::Finisher::kLinial;
  const auto res = lowdeg::color_low_degree(rt, params);
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
}

TEST(LowDeg, PathAndCycleTrivialCases) {
  for (const bool cycle : {false, true}) {
    const auto g = cycle ? graph::cycle(101) : graph::path(100);
    const auto cg = cluster::ClusterGraph::singleton(g);
    net::Ledger ledger(cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    const auto res = lowdeg::color_low_degree(rt, lowdeg_params(101, 19));
    cluster::check_proper_total(g, res.colors, res.num_colors);
    EXPECT_EQ(res.num_colors, 3);
  }
}

}  // namespace
}  // namespace ccg
