// Relay selection for anti-edges (paper, Lemma 9.2): distinct relays
// adjacent to both endpoints of every matched anti-edge, found through a
// sampled bipartite maximal matching.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "color/matching.hpp"
#include "color/relays.hpp"
#include "helpers.hpp"

namespace ccg {
namespace {

graph::PlantedSpec cabal_spec(int delta, int anti) {
  graph::PlantedSpec spec;
  spec.delta = delta;
  spec.num_cliques = 2;
  spec.anti_deg = anti;
  spec.external_deg = 2;
  return spec;
}

void check_relays(const color::State& st,
                  const std::vector<std::pair<int, int>>& pairs,
                  const color::RelayResult& res) {
  ASSERT_EQ(res.relay.size(), pairs.size());
  std::set<int> seen;
  std::set<int> endpoints;
  for (const auto& [a, b] : pairs) {
    endpoints.insert(a);
    endpoints.insert(b);
  }
  const auto& h = st.h();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const int r = res.relay[i];
    ASSERT_GE(r, 0);
    // Distinct across anti-edges, never an endpoint.
    EXPECT_TRUE(seen.insert(r).second);
    EXPECT_EQ(endpoints.count(r), 0u);
    // Adjacent to both endpoints in H.
    const auto& nb = h.neighbors(r);
    EXPECT_NE(std::find(nb.begin(), nb.end(), pairs[i].first), nb.end());
    EXPECT_NE(std::find(nb.begin(), nb.end(), pairs[i].second), nb.end());
  }
}

// Vertex-disjoint anti-edges of clique k, read off the planted structure.
std::vector<std::pair<int, int>> planted_anti_pairs(const color::State& st,
                                                    int k, int want) {
  const auto& members = st.dc.acd.members[static_cast<std::size_t>(k)];
  const auto& h = st.h();
  std::vector<char> used(static_cast<std::size_t>(h.n()), 0);
  std::vector<std::pair<int, int>> pairs;
  for (const int v : members) {
    if (used[static_cast<std::size_t>(v)]) continue;
    for (const int u : members) {
      if (u == v || used[static_cast<std::size_t>(u)]) continue;
      const auto& nb = h.neighbors(v);
      if (std::find(nb.begin(), nb.end(), u) == nb.end()) {
        pairs.emplace_back(v, u);
        used[static_cast<std::size_t>(v)] = 1;
        used[static_cast<std::size_t>(u)] = 1;
        break;
      }
    }
    if (static_cast<int>(pairs.size()) >= want) break;
  }
  return pairs;
}

TEST(Relays, DistinctAdjacentRelaysOnPlantedCabal) {
  auto f = testing::make_planted_fixture(
      cabal_spec(64, 4), color::Params::defaults_for(300, 3), 5);
  const auto pairs = planted_anti_pairs(*f->st, 0, 8);
  ASSERT_GE(pairs.size(), 4u);
  const auto res = color::find_relays(*f->st, 0, pairs);
  check_relays(*f->st, pairs, res);
}

TEST(Relays, EmptyAndSinglePair) {
  auto f = testing::make_planted_fixture(
      cabal_spec(48, 2), color::Params::defaults_for(200, 7), 9);
  const auto none =
      color::find_relays(*f->st, 0, {});
  EXPECT_TRUE(none.relay.empty());
  const auto pairs = planted_anti_pairs(*f->st, 0, 1);
  ASSERT_EQ(pairs.size(), 1u);
  const auto res = color::find_relays(*f->st, 0, pairs);
  check_relays(*f->st, pairs, res);
}

TEST(Relays, SaturatesWithManyAntiEdges) {
  // Push the pair count toward the Lemma's k: a large planted anti-degree
  // yields ~|K|/2 disjoint anti-edges; relays must still saturate.
  auto f = testing::make_planted_fixture(
      cabal_spec(96, 10), color::Params::defaults_for(400, 11), 13);
  const auto pairs = planted_anti_pairs(*f->st, 0, 24);
  ASSERT_GE(pairs.size(), 16u);
  const auto res = color::find_relays(*f->st, 0, pairs);
  check_relays(*f->st, pairs, res);
  EXPECT_LE(res.escalations, 4);
}

TEST(Relays, WorksOnFingerprintMatchingOutput) {
  // End-to-end with Algorithm 7: relays for the matching it discovers.
  auto f = testing::make_planted_fixture(
      cabal_spec(80, 3), color::Params::defaults_for(350, 17), 19);
  std::vector<std::pair<int, int>> pairs;
  color::fingerprint_matching_into(*f->st, 0, nullptr, /*charge=*/true,
                                   &pairs);
  if (pairs.empty()) GTEST_SKIP() << "matching found no anti-edges";
  const auto res = color::find_relays(*f->st, 0, pairs, /*charge=*/false);
  check_relays(*f->st, pairs, res);
}

TEST(Relays, ParallelCliquesShareOneCharge) {
  auto f = testing::make_planted_fixture(
      cabal_spec(64, 4), color::Params::defaults_for(300, 23), 29);
  const auto before = f->ledger->h_rounds();
  int max_rounds = 0;
  for (int k = 0; k < 2; ++k) {
    const auto pairs = planted_anti_pairs(*f->st, k, 6);
    const auto res = color::find_relays(*f->st, k, pairs, /*charge=*/false);
    check_relays(*f->st, pairs, res);
    max_rounds = std::max(max_rounds, res.proposal_rounds);
  }
  EXPECT_EQ(f->ledger->h_rounds(), before);  // uncharged so far
  color::find_relays_charge(*f->st, max_rounds);
  EXPECT_GT(f->ledger->h_rounds(), before);
}

}  // namespace
}  // namespace ccg
