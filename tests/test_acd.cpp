// Tests: almost-clique decomposition (Section 5.4, Prop 4.3, Def 4.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "acd/acd.hpp"
#include "cluster/cluster_graph.hpp"
#include "cluster/runtime.hpp"
#include "exec/parallel_round.hpp"
#include "graph/generators.hpp"

namespace ccg::acd {
namespace {

struct AcdCase {
  int delta;
  int cliques;
  int anti;
  int ext;
  int sparse;
  double sparse_deg;
};

class AcdOnPlanted : public ::testing::TestWithParam<AcdCase> {};

TEST_P(AcdOnPlanted, RecoversPlantedStructure) {
  const auto c = GetParam();
  Rng rng(1234);
  graph::PlantedSpec spec;
  spec.delta = c.delta;
  spec.num_cliques = c.cliques;
  spec.anti_deg = c.anti;
  spec.external_deg = c.ext;
  spec.num_sparse = c.sparse;
  spec.sparse_avg_deg = c.sparse_deg;
  const auto planted = graph::make_planted_acd(spec, rng);

  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);

  AcdParams params;
  params.eps = 0.2;
  params.t = 8000;  // wide fingerprints: near-exact estimates
  params.measure_bits = false;
  StreamCtx streams(rng.next_u64());
  AcdScratch scratch;
  AcdResult res;
  compute_acd(rt, params, streams, &res, &scratch);

  EXPECT_EQ(res.num_cliques, c.cliques);
  std::string why;
  EXPECT_TRUE(verify_almost_cliques(planted.g, res, 3 * params.eps, &why))
      << why;
  // Planted dense vertices recovered as dense, in blocks matching the
  // ground truth (ids may permute: check same-block equivalence).
  for (int v = 0; v < planted.g.n(); ++v) {
    if (planted.clique_of[v] >= 0) {
      EXPECT_GE(res.clique_of[v], 0) << "dense vertex " << v << " missed";
    } else {
      EXPECT_EQ(res.clique_of[v], -1) << "sparse vertex " << v << " caught";
    }
  }
  for (int v = 0; v < planted.g.n(); ++v) {
    for (int u = v + 1; u < std::min(planted.g.n(), v + 50); ++u) {
      if (planted.clique_of[v] >= 0 &&
          planted.clique_of[v] == planted.clique_of[u]) {
        EXPECT_EQ(res.clique_of[v], res.clique_of[u]);
      }
    }
  }
}

// Planted instances are detectable when roughly 2 e_v + 2 a_v <= xi*Delta
// (see the calibration note in src/acd/acd.cpp).
INSTANTIATE_TEST_SUITE_P(
    Cases, AcdOnPlanted,
    ::testing::Values(AcdCase{60, 3, 0, 4, 0, 0.0},
                      AcdCase{60, 3, 2, 6, 60, 8.0},
                      AcdCase{64, 4, 4, 4, 0, 0.0},
                      AcdCase{40, 2, 0, 4, 120, 6.0}));

TEST(Acd, OracleModeMatchesPlantedExactly) {
  Rng rng(77);
  graph::PlantedSpec spec;
  spec.delta = 40;
  spec.num_cliques = 3;
  spec.anti_deg = 2;
  spec.external_deg = 4;
  spec.num_sparse = 40;
  spec.sparse_avg_deg = 5.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  AcdParams params;
  params.eps = 0.2;
  params.use_fingerprints = false;
  StreamCtx streams(rng.next_u64());
  AcdScratch scratch;
  AcdResult res;
  compute_acd(rt, params, streams, &res, &scratch);
  EXPECT_EQ(res.num_cliques, 3);
  for (int v = 0; v < planted.g.n(); ++v) {
    EXPECT_EQ(res.clique_of[v] >= 0, planted.clique_of[v] >= 0);
  }
}

TEST(Acd, PureSparseGraphHasNoCliques) {
  Rng rng(5);
  const auto g = graph::gnm(300, 1500, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  AcdParams params;
  params.eps = 0.1;
  params.use_fingerprints = false;
  StreamCtx streams(rng.next_u64());
  AcdScratch scratch;
  AcdResult res;
  compute_acd(rt, params, streams, &res, &scratch);
  EXPECT_EQ(res.num_cliques, 0);
}

TEST(Acd, AnnotateDenseClassifiesCabals) {
  Rng rng(7);
  graph::PlantedSpec spec;
  spec.delta = 60;
  spec.num_cliques = 4;
  spec.anti_deg = 0;
  spec.external_deg = 4;  // low external degree -> cabals for large ell
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  AcdParams params;
  params.eps = 0.1;
  params.use_fingerprints = false;
  StreamCtx streams(rng.next_u64());
  AcdScratch scratch;
  AcdResult res;
  compute_acd(rt, params, streams, &res, &scratch);
  ASSERT_EQ(res.num_cliques, 4);

  // ell above the external degree: every clique is a cabal. The oracle
  // annotation draws nothing, so both calls share the stream space.
  DenseInfo info;
  annotate_dense(rt, res, /*ell=*/10.0, 64, false, streams, nullptr, &info);
  for (int k = 0; k < res.num_cliques; ++k) {
    EXPECT_TRUE(info.is_cabal[k]);
    EXPECT_NEAR(info.avg_ext_est[k], 4.0, 1.0);
    EXPECT_EQ(info.clique_size[k], 60 + 1 - 4);
  }
  // ell below: none are.
  annotate_dense(rt, res, /*ell=*/2.0, 64, false, streams, nullptr, &info);
  for (int k = 0; k < res.num_cliques; ++k) {
    EXPECT_FALSE(info.is_cabal[k]);
  }
}

// Brute-force check of the neighborhood split: for every dense v of
// clique K, ext(v) == sorted(N(v) \ K) and anti(v) == sorted(K \ N[v]);
// both rows are empty for sparse v, and an oracle annotation reads
// ẽ_v == |ext(v)|. Returns the total anti-row length, so callers can
// insist the instance exercised it.
std::size_t expect_split_matches_brute_force(const graph::Graph& h,
                                             const AcdResult& acd,
                                             const DenseInfo& info,
                                             bool oracle,
                                             const std::string& label) {
  EXPECT_EQ(info.ext_off.size(), static_cast<std::size_t>(h.n()) + 1)
      << label;
  EXPECT_EQ(info.anti_off.size(), static_cast<std::size_t>(h.n()) + 1)
      << label;
  std::size_t anti_total = 0;
  for (int v = 0; v < h.n(); ++v) {
    const int k = acd.clique_of[static_cast<std::size_t>(v)];
    std::vector<int> want_ext, want_anti;
    if (k >= 0) {
      for (const int u : h.neighbors(v)) {
        if (acd.clique_of[static_cast<std::size_t>(u)] != k) {
          want_ext.push_back(u);
        }
      }
      for (const int w : acd.members[static_cast<std::size_t>(k)]) {
        if (w != v && !h.has_edge(v, w)) want_anti.push_back(w);
      }
      std::sort(want_ext.begin(), want_ext.end());
      std::sort(want_anti.begin(), want_anti.end());
    }
    const auto ext = info.ext(v);
    const auto anti = info.anti(v);
    EXPECT_EQ(std::vector<int>(ext.begin(), ext.end()), want_ext)
        << label << " vertex " << v;
    EXPECT_EQ(std::vector<int>(anti.begin(), anti.end()), want_anti)
        << label << " vertex " << v;
    if (oracle) {
      EXPECT_EQ(info.ext_est[static_cast<std::size_t>(v)],
                static_cast<double>(ext.size()))
          << label << " vertex " << v;
    }
    anti_total += anti.size();
  }
  return anti_total;
}

graph::PlantedGraph split_instance() {
  Rng rng(606);
  graph::PlantedSpec spec;
  spec.delta = 90;
  spec.num_cliques = 4;
  spec.anti_deg = 3;
  spec.external_deg = 8;
  spec.num_sparse = 150;
  spec.sparse_avg_deg = 20.0;
  return graph::make_planted_acd(spec, rng);
}

TEST(Acd, NeighborhoodSplitMatchesBruteForce) {
  const auto planted = split_instance();
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  for (const bool oracle : {true, false}) {
    for (const int threads : {1, 4}) {
      const std::string label = std::string(oracle ? "oracle" : "fingerprint") +
                                " threads=" + std::to_string(threads);
      net::Ledger ledger(cg.default_bandwidth());
      cluster::Runtime rt(cg, ledger);
      exec::ParallelRound par(threads);
      AcdParams params;
      params.eps = 0.2;
      params.use_fingerprints = !oracle;
      params.measure_bits = false;
      params.par = &par;
      StreamCtx streams(17);
      AcdScratch scratch;
      AcdResult acd;
      DenseInfo info;
      compute_acd(rt, params, streams, &acd, &scratch);
      ASSERT_GT(acd.num_cliques, 0) << label;
      annotate_dense(rt, acd, /*ell=*/20.0, params.t, !oracle, streams, &par,
                     &info, &scratch);
      EXPECT_GT(expect_split_matches_brute_force(planted.g, acd, info, oracle,
                                                 label),
                0u)
          << label;
    }
  }
}

// C_n(±1..k): vertex i is adjacent to i±1, ..., i±k (mod n), so Delta =
// 2k, and an edge between vertices at distance d has |N(u) ∪ N(v)| =
// 2k + 1 + d (for n > 4k). With a nonzero seed, vertex i is relabelled by
// a fixed random permutation, which keeps those sizes and scatters every
// row over the 64-bit words of [0, n).
graph::Graph circulant_band(int n, int k, std::uint64_t relabel_seed = 0) {
  std::vector<int> label(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) label[i] = i;
  if (relabel_seed != 0) {
    Rng rng(relabel_seed);
    for (int i = n - 1; i > 0; --i) {
      std::swap(label[i], label[rng.next_below(i + 1)]);
    }
  }
  graph::Graph g(n);
  for (int i = 0; i < n; ++i) {
    for (int d = 1; d <= k; ++d) g.add_edge(label[i], label[(i + d) % n]);
  }
  g.finalize();
  return g;
}

TEST(Acd, OracleFailsAfterOneDeterministicAttempt) {
  // At eps 0.3 every vertex of C_256(±1..32) is a dense candidate and the
  // buddy graph is one 256-vertex component, past the (1 + 3 eps) Delta
  // size cap of 122. The oracle draws nothing, so a retry would repeat
  // the same merge: it fails after one attempt's 8 H-rounds.
  const auto g = circulant_band(256, 32);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  ASSERT_EQ(rt.delta(), 64);
  AcdParams params;
  params.eps = 0.3;
  params.use_fingerprints = false;
  StreamCtx streams(3);
  AcdScratch scratch;
  AcdResult res;
  try {
    compute_acd(rt, params, streams, &res, &scratch);
    FAIL() << "merged oracle decomposition accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("AcdParams::eps"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ledger.h_rounds(), 8);
}

// The oracle decomposition by its definition: explicit set unions per
// edge, the high-degree filter, the buddy-degree threshold and the
// components of the candidate-restricted buddy graph, numbered by their
// smallest vertex.
struct ReferenceAcd {
  std::vector<std::vector<int>> buddies;  // sorted, per vertex
  std::vector<bool> candidate;
  std::vector<int> clique_of;
  std::vector<std::vector<int>> members;
  int boundary_buddies = 0;   // buddy edges with union == floor((1+xi)D)
  int boundary_rejects = 0;   // high-high edges with union == that + 1
};

ReferenceAcd reference_oracle_acd(const graph::Graph& g, double xi) {
  const int n = g.n();
  const int delta = g.max_degree();
  const auto limit = static_cast<int>(std::floor((1.0 + xi) * delta));
  ReferenceAcd ref;
  ref.buddies.resize(n);
  std::vector<bool> high(n);
  for (int v = 0; v < n; ++v) high[v] = g.degree(v) >= (1.0 - 2.0 * xi) * delta;
  for (const auto& [u, v] : g.edges()) {
    std::set<int> uni(g.neighbors(u).begin(), g.neighbors(u).end());
    uni.insert(g.neighbors(v).begin(), g.neighbors(v).end());
    const int size = static_cast<int>(uni.size());
    if (!high[u] || !high[v]) continue;
    ref.boundary_rejects += size == limit + 1;
    if (size > (1.0 + xi) * delta) continue;
    ref.boundary_buddies += size == limit;
    ref.buddies[u].push_back(v);
    ref.buddies[v].push_back(u);
  }
  for (auto& b : ref.buddies) std::sort(b.begin(), b.end());
  auto& candidate = ref.candidate;
  candidate.resize(n);
  for (int v = 0; v < n; ++v) {
    candidate[v] = ref.buddies[v].size() >= (1.0 - 2.0 * xi) * delta;
  }
  ref.clique_of.assign(n, -1);
  std::vector<bool> seen(n, false);
  for (int src = 0; src < n; ++src) {
    if (!candidate[src] || seen[src]) continue;
    std::vector<int> comp{src};
    seen[src] = true;
    for (std::size_t i = 0; i < comp.size(); ++i) {
      for (const int u : ref.buddies[comp[i]]) {
        if (candidate[u] && !seen[u]) {
          seen[u] = true;
          comp.push_back(u);
        }
      }
    }
    if (static_cast<int>(comp.size()) < std::max(2, delta / 2)) continue;
    std::sort(comp.begin(), comp.end());
    for (const int v : comp) {
      ref.clique_of[v] = static_cast<int>(ref.members.size());
    }
    ref.members.push_back(comp);
  }
  return ref;
}

// Dense rows first: an almost-clique on vertices [0, 48) plus a sparse
// tail, so nearly all of the oracle's row work sits in the first rows.
graph::Graph hub_rows_graph() {
  Rng rng(17);
  const int n = 400, hubs = 48;
  graph::Graph g(n);
  for (int u = 0; u < hubs; ++u) {
    for (int v = u + 1; v < hubs; ++v) {
      if ((u + v) % 11 != 0) g.add_edge(u, v);  // a few anti-edges
    }
    for (int j = 0; j < 3; ++j) {
      g.add_edge(u, hubs + 3 * u + j);  // private external neighbors
    }
  }
  for (int v = hubs; v < n; ++v) {
    const int u = hubs + static_cast<int>(rng.next_below(n - hubs));
    if (u > v + 150) g.add_edge(v, u);  // sparse, duplicate-free tail
  }
  g.finalize();
  return g;
}

// g with vertex v renamed perm[v] for a fixed random permutation.
graph::Graph relabelled(const graph::Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  const auto perm = rng.permutation(g.n());
  graph::Graph out(g.n());
  for (const auto& [u, v] : g.edges()) {
    out.add_edge(perm[static_cast<std::size_t>(u)],
                 perm[static_cast<std::size_t>(v)]);
  }
  out.finalize();
  return out;
}

// Two 60-cliques K1 = [1, 61) and K2 = [61, 121) joined through the
// bridges 0 and 121. Each bridge is adjacent to 8 members of each clique
// (no member sees both bridges) and to 9 private leaves. Delta = 60, so at
// eps 0.3 the high bar and the candidate bar are 24 and the buddy bound is
// floor(1.3 * 60) = 78. A bridge has degree 25 and |N(b) ∪ N(y)| =
// 25 + 60 - 7 = 78 for each of its 16 clique neighbors y, so it is high
// and a buddy of all 16, but its buddy degree 16 keeps it out of the
// candidates. Without that restriction the cliques and bridges would form
// one component of at least 120 vertices, past the size cap of
// (1 + 3 eps) Delta. Bridge 0 owns the rows of its buddy slots and bridge
// 121 owns none, so both sides of a slot must be candidates.
constexpr int kBridges[] = {0, 121};
graph::Graph bridged_cliques() {
  graph::Graph g(140);
  int leaf = 122;
  for (const int base : {1, 61}) {
    for (int u = base; u < base + 60; ++u) {
      for (int v = u + 1; v < base + 60; ++v) g.add_edge(u, v);
    }
    for (int j = 0; j < 8; ++j) {
      g.add_edge(kBridges[0], base + 7 * j + 3);
      g.add_edge(kBridges[1], base + 7 * j + 5);
    }
  }
  for (const int b : kBridges) {
    for (int j = 0; j < 9; ++j) g.add_edge(b, leaf++);
  }
  g.finalize();
  return g;
}

// Dense words last in id order: the 64-clique K = [704, 768) fills word
// 11, and member i has one external neighbor in each of the words 0-9
// (0-10 when i % 16 == 0), drawn from the first 48 ids of the word, so
// members share a few. In id order every member row starts with at least
// 10 one-neighbor words and ends with its 63-neighbor word. Delta = 74,
// so at eps 0.14 the buddy bound is floor(1.14 * 74) = 84 and
// |N(u) ∪ N(v)| = 64 + x_u + x_v - s for members with x_u, x_v external
// neighbors, s of them shared. Two 10-external members that share none
// sit exactly on the bound (common == need == 62); a 10- and an
// 11-external member that share none sit one past it. The 60 members with
// 10 externals stay candidates and form the clique.
graph::Graph dense_word_last_graph() {
  Rng rng(43);
  constexpr int kLow = 704, kBlock = 64;
  graph::Graph g(kLow + kBlock);
  for (int i = 0; i < kBlock; ++i) {
    for (int j = i + 1; j < kBlock; ++j) g.add_edge(kLow + i, kLow + j);
    const int externals = i % 16 == 0 ? 11 : 10;
    for (int word = 0; word < externals; ++word) {
      g.add_edge(kLow + i, 64 * word + static_cast<int>(rng.next_below(48)));
    }
  }
  g.finalize();
  return g;
}

TEST(Acd, OracleMatchesSetUnionReference) {
  Rng rng(91);
  graph::PlantedSpec spec;
  spec.delta = 40;
  spec.num_cliques = 3;
  spec.anti_deg = 2;
  spec.external_deg = 4;
  spec.num_sparse = 60;
  spec.sparse_avg_deg = 12.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  struct Case {
    const char* name;
    graph::Graph g;
    double eps;
    bool on_bound = false;    // has edges on and one past the buddy bound
    bool cliques = true;      // the decomposition is not empty
    int min_row_words = 0;    // some packed row spans this many words
  };
  // C_36(±1..10) at eps 0.3: floor(1.3 * 20) = 26 = 21 + d for d = 5, so
  // distance-5 edges sit exactly on the buddy bound and distance-6 edges
  // one past it.
  // The relabelled C_1100(±1..40) at eps 0.2 puts the bound at
  // floor(1.2 * 80) = 96 = 81 + d for d = 15. Its rows scatter 80
  // neighbors over ceil(1100 / 64) = 18 words (the last one partial), so
  // the buddy test runs up to four full blocks of 4 words per row and
  // exits on both sides of the bound. Buddy degrees are 30, below the candidate
  // bar of 0.6 * 80, so no almost-clique forms.
  // The relabelled planted instance scatters every clique over all ids,
  // so each row part holds members of every clique and the per-part
  // union-find forests only connect them once merged.
  // "dense word last" stores each member row's 63-neighbor word last in
  // id order (dense_word_last_graph); packed rows put it first.
  const std::vector<Case> cases = {
      {"planted", planted.g, 0.2},
      {"relabelled planted", relabelled(planted.g, 23), 0.2},
      {"boundary", circulant_band(36, 10), 0.3, true},
      {"hub rows", hub_rows_graph(), 0.2},
      {"relabelled band", circulant_band(1100, 40, 29), 0.2, true, false, 16},
      {"bridged cliques", bridged_cliques(), 0.3},
      {"dense word last", dense_word_last_graph(), 0.14, true, true, 11},
  };
  {
    const auto ref = reference_oracle_acd(bridged_cliques(), 0.3);
    ASSERT_EQ(ref.members.size(), 2u);
    EXPECT_EQ(ref.members[0].size(), 60u);
    EXPECT_EQ(ref.members[1].size(), 60u);
    for (const int b : kBridges) {
      int in_k1 = 0, in_k2 = 0;
      for (const int y : ref.buddies[b]) {
        in_k1 += ref.clique_of[y] == 0;
        in_k2 += ref.clique_of[y] == 1;
      }
      EXPECT_EQ(in_k1, 8) << "bridge " << b;
      EXPECT_EQ(in_k2, 8) << "bridge " << b;
      EXPECT_FALSE(ref.candidate[b]) << "bridge " << b;
      EXPECT_EQ(ref.clique_of[b], -1) << "bridge " << b;
    }
  }
  for (const auto& c : cases) {
    const auto ref = reference_oracle_acd(c.g, c.eps);
    if (c.on_bound) {
      EXPECT_GT(ref.boundary_buddies, 0) << c.name;
      EXPECT_GT(ref.boundary_rejects, 0) << c.name;
    }
    ASSERT_EQ(ref.members.empty(), !c.cliques) << c.name;
    const auto cg = cluster::ClusterGraph::singleton(c.g);
    for (const int threads : {1, 2, 8}) {
      const std::string label =
          std::string(c.name) + " threads=" + std::to_string(threads);
      net::Ledger ledger(cg.default_bandwidth());
      cluster::Runtime rt(cg, ledger);
      exec::ParallelRound par(threads);
      AcdParams params;
      params.eps = c.eps;
      params.use_fingerprints = false;
      params.par = &par;
      StreamCtx streams(5);
      AcdScratch scratch;
      AcdResult res;
      compute_acd(rt, params, streams, &res, &scratch);
      std::int64_t widest = 0;
      for (int v = 0; v < c.g.n(); ++v) {
        widest = std::max(widest,
                          scratch.word_off[v + 1] - scratch.word_off[v]);
      }
      EXPECT_GE(widest, c.min_row_words) << label;
      // Packed rows store their words densest first (popcounts never
      // rise along a row), and `upto` is the running neighbor count in
      // stored order.
      for (const int v : scratch.high_rows) {
        int prev = 64;
        std::int32_t upto = 0;
        for (auto i = scratch.word_off[v]; i < scratch.word_off[v + 1]; ++i) {
          const auto& x = scratch.packed[static_cast<std::size_t>(i)];
          const int count = std::popcount(x.mask);
          ASSERT_LE(count, prev) << label << " row " << v;
          prev = count;
          upto += count;
          ASSERT_EQ(x.upto, upto) << label << " row " << v;
        }
        ASSERT_EQ(upto, c.g.degree(v)) << label << " row " << v;
      }
      // Buddy sets from the slot flags: slot j of row u is the edge to
      // u's j-th upper neighbor, in h.edges() order.
      std::vector<std::vector<int>> got(c.g.n());
      std::size_t slot = 0;
      for (const auto& [u, v] : c.g.edges()) {
        if (scratch.buddy[slot++]) {
          got[u].push_back(v);
          got[v].push_back(u);
        }
      }
      for (int v = 0; v < c.g.n(); ++v) {
        std::sort(got[v].begin(), got[v].end());
        ASSERT_EQ(got[v], ref.buddies[v]) << label << " vertex " << v;
        ASSERT_EQ(scratch.candidate[v] != 0, ref.candidate[v])
            << label << " vertex " << v;
      }
      EXPECT_EQ(res.clique_of, ref.clique_of) << label;
      ASSERT_EQ(res.num_cliques, static_cast<int>(ref.members.size()))
          << label;
      for (int k = 0; k < res.num_cliques; ++k) {
        EXPECT_EQ(res.members[k], ref.members[k]) << label << " clique " << k;
      }
    }
  }
}

TEST(Acd, VerifierCatchesBadDecomposition) {
  const auto g = graph::path(10);
  AcdResult bad;
  bad.num_cliques = 1;
  bad.clique_of.assign(10, 0);
  bad.members = {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}};
  std::string why;
  EXPECT_FALSE(verify_almost_cliques(g, bad, 0.2, &why));
  EXPECT_FALSE(why.empty());
}

}  // namespace
}  // namespace ccg::acd
