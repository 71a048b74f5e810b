// Unit tests: graph container, statistics, generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/validate.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/stats.hpp"
#include "lowdeg/lowdeg.hpp"

namespace ccg::graph {
namespace {

TEST(Graph, BasicOps) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.finalize();
  EXPECT_EQ(g.n(), 4);
  EXPECT_EQ(g.m(), 3);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, FinalizeIsIdempotent) {
  // Regression for the parallel round engine: finalize() must never
  // partially rebuild an already-locked CSR (the staging buffer is gone),
  // so a second call is a strict no-op.
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  EXPECT_FALSE(g.finalized());
  g.finalize();
  EXPECT_TRUE(g.finalized());
  const auto edges_before = g.edges();
  g.finalize();  // no-op
  g.finalize();  // still a no-op
  EXPECT_TRUE(g.finalized());
  EXPECT_EQ(g.edges(), edges_before);
  EXPECT_EQ(g.m(), 3);
  EXPECT_EQ(g.degree(1), 2);
}

TEST(Graph, AddEdgeAfterFinalizeIsContractViolation) {
  Graph g(4);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_THROW(g.add_edge(2, 3), ContractViolation);
  // The failed call must not have corrupted the locked structure.
  EXPECT_EQ(g.m(), 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(Graph, QueriesBeforeFinalizeAreContractViolations) {
  // A half-built graph must be loudly unusable, not quietly empty: the
  // always-on checks cover the queries the coloring phases shard over.
  Graph g(4);
  g.add_edge(0, 1);
  EXPECT_THROW(g.has_edge(0, 1), ContractViolation);
  EXPECT_THROW(g.edges(), ContractViolation);
  EXPECT_THROW(g.max_degree(), ContractViolation);
  g.finalize();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_EQ(g.max_degree(), 1);
}

TEST(Graph, CsrEdgeRoundTrip) {
  // from_edges -> edges() must reproduce the input as sorted (u < v)
  // pairs, and every CSR row must be sorted and duplicate-free.
  Rng rng(101);
  const auto g = gnm(200, 1200, rng);
  const auto edges = g.edges();
  EXPECT_EQ(static_cast<std::int64_t>(edges.size()), g.m());
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  const auto g2 = Graph::from_edges(g.n(), edges);
  EXPECT_EQ(g2.edges(), edges);
  for (int v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    EXPECT_EQ(static_cast<int>(nb.size()), g.degree(v));
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    EXPECT_EQ(std::adjacent_find(nb.begin(), nb.end()), nb.end());
    for (const int u : nb) {
      EXPECT_TRUE(u != v && u >= 0 && u < g.n());
    }
  }
}

TEST(Graph, UpperRowsAreTheRowAboveV) {
  // upper_neighbors(v) is v's row filtered to w > v, read in O(1) from
  // upper_offsets(); rows are empty and the offsets zero before finalize.
  Graph g(8);  // 2, 5 and 7 stay isolated
  for (const auto& [u, v] : std::vector<std::pair<int, int>>{
           {0, 1}, {6, 0}, {3, 1}, {4, 3}, {1, 6}, {4, 0}}) {
    g.add_edge(u, v);
  }
  for (int v = 0; v < g.n(); ++v) EXPECT_TRUE(g.upper_neighbors(v).empty());
  for (const std::int64_t off : g.upper_offsets()) EXPECT_EQ(off, 0);
  g.finalize();
  Rng rng(103);
  const auto sparse = gnm(300, 200, rng);  // many isolated vertices
  for (const Graph* h : {&std::as_const(g), &sparse}) {
    const auto off = h->upper_offsets();
    ASSERT_EQ(off.size(), static_cast<std::size_t>(h->n()) + 1);
    EXPECT_EQ(off.back(), h->m());
    for (int v = 0; v < h->n(); ++v) {
      std::vector<int> want;
      for (const int w : h->neighbors(v)) {
        if (w > v) want.push_back(w);
      }
      const auto up = h->upper_neighbors(v);
      EXPECT_EQ(std::vector<int>(up.begin(), up.end()), want) << v;
      EXPECT_EQ(off[static_cast<std::size_t>(v) + 1] -
                    off[static_cast<std::size_t>(v)],
                static_cast<std::int64_t>(want.size()));
    }
  }
}

TEST(Graph, HasEdgeMatchesBruteForce) {
  // has_edge (bitset fast path and binary-search path alike) must agree
  // with a dense adjacency matrix built independently.
  Rng rng(102);
  const auto g = gnm(120, 2500, rng);  // avg degree ~ 41, some rows >= 64
  std::vector<std::vector<char>> adj(
      static_cast<std::size_t>(g.n()),
      std::vector<char>(static_cast<std::size_t>(g.n()), 0));
  for (const auto& [u, v] : g.edges()) {
    adj[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] = 1;
    adj[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)] = 1;
  }
  for (int u = 0; u < g.n(); ++u) {
    for (int v = 0; v < g.n(); ++v) {
      if (u == v) continue;
      EXPECT_EQ(g.has_edge(u, v),
                static_cast<bool>(
                    adj[static_cast<std::size_t>(u)]
                       [static_cast<std::size_t>(v)]))
          << u << " " << v;
    }
  }
}

TEST(Graph, HasEdgeAgreesWithMembership) {
  // Dense rows (a clique) and sparse rows (a path) answer from the same
  // binary search of the smaller CSR row.
  const auto clique = complete(80);
  for (int v = 0; v < clique.n(); ++v) {
    for (int u = 0; u < clique.n(); ++u) {
      EXPECT_EQ(clique.has_edge(v, u), u != v) << v << " " << u;
    }
  }
  const auto line = path(100);
  for (int v = 0; v < line.n(); ++v) {
    for (int u = 0; u < line.n(); ++u) {
      EXPECT_EQ(line.has_edge(v, u), u == v - 1 || u == v + 1)
          << v << " " << u;
    }
  }
}

TEST(Graph, HeapBytesAreTheCsrAndOffsetsPlusLinear) {
  // A planted Delta = 128 graph, whose block rows are all dense. It may
  // hold its CSR, the two (n + 1)-entry offset arrays and at most one more
  // word per vertex; an n-bit adjacency row per dense vertex (n / 8 bytes
  // each) would exceed that slack several times over.
  Rng rng(11);
  PlantedSpec spec;
  spec.delta = 128;
  spec.num_cliques = 4;
  spec.anti_deg = 2;
  spec.external_deg = 8;
  const auto g = make_planted_acd(spec, rng).g;
  const auto n = static_cast<std::size_t>(g.n());
  ASSERT_GE(g.max_degree(), 100);
  const std::size_t csr =
      static_cast<std::size_t>(2 * g.m()) * sizeof(std::int32_t);
  const std::size_t offsets = 2 * (n + 1) * sizeof(std::int64_t);
  EXPECT_LE(g.heap_bytes(), csr + offsets + n * sizeof(std::int64_t));
}

TEST(Graph, InducedSubgraphIdRemapInvariants) {
  // Old ids map to [0, |keep|) in keep-order; adjacency is preserved
  // exactly on the kept set.
  Rng rng(103);
  const auto g = gnm(60, 400, rng);
  const std::vector<int> keep{3, 7, 11, 12, 30, 31, 32, 45, 59};
  const auto [sub, old_id] = g.induced_subgraph(keep);
  ASSERT_EQ(old_id, keep);
  ASSERT_EQ(sub.n(), static_cast<int>(keep.size()));
  for (int a = 0; a < sub.n(); ++a) {
    for (int b = 0; b < sub.n(); ++b) {
      if (a == b) continue;
      EXPECT_EQ(sub.has_edge(a, b), g.has_edge(old_id[a], old_id[b]));
    }
  }
}

TEST(Graph, SelfLoopRejected) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(1, 1), ContractViolation);
}

TEST(Graph, DuplicateEdgeRejectedAtFinalize) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_THROW(g.finalize(), ContractViolation);
}

TEST(Graph, Components) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  const auto comp = g.connected_components();
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
  EXPECT_FALSE(g.is_connected());
}

TEST(Graph, InducedSubgraph) {
  Graph g = complete(5);
  const auto [sub, ids] = g.induced_subgraph({0, 2, 4});
  EXPECT_EQ(sub.n(), 3);
  EXPECT_EQ(sub.m(), 3);
  EXPECT_EQ(ids.size(), 3u);
}

TEST(Generators, BasicShapes) {
  EXPECT_EQ(path(5).m(), 4);
  EXPECT_EQ(cycle(5).m(), 5);
  EXPECT_EQ(star(5).m(), 4);
  EXPECT_EQ(star(5).degree(0), 4);
  EXPECT_EQ(complete(6).m(), 15);
  EXPECT_EQ(grid(3, 4).n(), 12);
  EXPECT_EQ(grid(3, 4).m(), 3 * 2 + 4 * 3 - 3 + 2);  // 2*w*h - w - h = 17
  Rng rng(1);
  const auto t = random_tree(50, rng);
  EXPECT_EQ(t.m(), 49);
  EXPECT_TRUE(t.is_connected());
}

TEST(Generators, GnpEdgeCountRoughlyRight) {
  Rng rng(2);
  const auto g = gnp(400, 0.05, rng);
  const double expected = 0.05 * 400 * 399 / 2;
  EXPECT_NEAR(static_cast<double>(g.m()), expected, 5 * std::sqrt(expected));
}

TEST(Generators, GnmExact) {
  Rng rng(2);
  const auto g = gnm(100, 250, rng);
  EXPECT_EQ(g.m(), 250);
}

TEST(Generators, GraphPowerOfPath) {
  const auto p2 = graph_power(path(6), 2);
  // Path 0-1-2-3-4-5 squared: edges at distance 1 and 2.
  EXPECT_TRUE(p2.has_edge(0, 2));
  EXPECT_TRUE(p2.has_edge(0, 1));
  EXPECT_FALSE(p2.has_edge(0, 3));
  EXPECT_EQ(p2.m(), 5 + 4);
}

TEST(Stats, SparsityOfClique) {
  // In a (Delta+1)-clique every vertex has sparsity 0.
  const auto g = complete(8);
  const int delta = g.max_degree();
  for (int v = 0; v < g.n(); ++v) {
    EXPECT_NEAR(sparsity(g, v, delta), 0.0, 1e-9);
  }
}

TEST(Stats, SparsityOfStarCenter) {
  // Star center: no edges among neighbors -> sparsity = (Delta-1)/2.
  const auto g = star(9);
  const int delta = g.max_degree();  // 8
  EXPECT_NEAR(sparsity(g, 0, delta), (delta - 1) / 2.0, 1e-9);
}

TEST(Stats, DenseDegrees) {
  // Two triangles joined by one edge; each triangle is a block.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(3, 5);
  g.add_edge(2, 3);
  g.finalize();
  const std::vector<int> clique_of = {0, 0, 0, 1, 1, 1};
  const auto dd = dense_degrees(g, clique_of);
  EXPECT_EQ(dd.external[2], 1);
  EXPECT_EQ(dd.external[3], 1);
  EXPECT_EQ(dd.external[0], 0);
  for (int v = 0; v < 6; ++v) EXPECT_EQ(dd.anti[v], 0);
}

TEST(Generators, PlantedAcdStructure) {
  Rng rng(3);
  PlantedSpec spec;
  spec.delta = 40;
  spec.num_cliques = 3;
  spec.anti_deg = 2;
  spec.external_deg = 6;
  const auto planted = make_planted_acd(spec, rng);
  const int block = spec.delta + 1 - spec.external_deg + spec.anti_deg;
  EXPECT_EQ(planted.g.n(), 3 * block);
  EXPECT_LE(planted.delta, spec.delta);

  const auto dd = dense_degrees(planted.g, planted.clique_of);
  for (int v = 0; v < planted.g.n(); ++v) {
    EXPECT_EQ(dd.anti[v], spec.anti_deg) << "vertex " << v;
    EXPECT_LE(dd.external[v], spec.external_deg);
  }
  // Stub matching should realize nearly all external edges.
  double avg_ext = 0;
  for (int v = 0; v < planted.g.n(); ++v) avg_ext += dd.external[v];
  avg_ext /= planted.g.n();
  EXPECT_GE(avg_ext, 0.8 * spec.external_deg);
}

TEST(Generators, PlantedAcdWithSparsePart) {
  Rng rng(4);
  PlantedSpec spec;
  spec.delta = 30;
  spec.num_cliques = 2;
  spec.anti_deg = 0;
  spec.external_deg = 4;
  spec.num_sparse = 100;
  spec.sparse_avg_deg = 6;
  spec.external_to_sparse = 0.5;
  const auto planted = make_planted_acd(spec, rng);
  EXPECT_EQ(planted.g.n(), 2 * (spec.delta + 1 - 4) + 100);
  EXPECT_LE(planted.g.max_degree(), spec.delta);
  int sparse_count = 0;
  for (const int c : planted.clique_of) {
    if (c == -1) ++sparse_count;
  }
  EXPECT_EQ(sparse_count, 100);
}

TEST(Generators, PlantedOddAntiDegreeNeedsEvenBlock) {
  Rng rng(5);
  PlantedSpec spec;
  spec.delta = 10;
  spec.num_cliques = 2;
  spec.anti_deg = 3;
  spec.external_deg = 2;
  // block = 10+1-2+3 = 12, even -> fine.
  EXPECT_NO_THROW(make_planted_acd(spec, rng));
  spec.external_deg = 3;  // block = 11, odd with odd anti -> reject
  EXPECT_THROW(make_planted_acd(spec, rng), ContractViolation);
}


TEST(Generators, ChungLuHitsAverageDegreeWithSkew) {
  Rng rng(41);
  const int n = 4000;
  const auto g = chung_lu(n, 12.0, 2.5, rng);
  const double avg = 2.0 * static_cast<double>(g.m()) / n;
  EXPECT_GT(avg, 6.0);
  EXPECT_LT(avg, 24.0);
  // Power-law skew: the hub degree dwarfs the average.
  EXPECT_GT(g.max_degree(), 4 * static_cast<int>(avg));
  // Hubs are the low-index vertices by construction.
  EXPECT_GT(g.degree(0), g.degree(n - 1));
}

TEST(Generators, ChungLuHeavierTailForSmallerGamma) {
  Rng rng(43);
  const auto heavy = chung_lu(3000, 10.0, 2.2, rng);
  const auto light = chung_lu(3000, 10.0, 4.0, rng);
  EXPECT_GT(heavy.max_degree(), light.max_degree());
}

TEST(Generators, CavemanStructure) {
  Rng rng(47);
  const int cliques = 6, size = 20, bridges = 3;
  const auto g = caveman(cliques, size, bridges, rng);
  ASSERT_EQ(g.n(), cliques * size);
  // Every block is complete.
  for (int k = 0; k < cliques; ++k) {
    for (int a = 0; a < size; ++a) {
      const int v = k * size + a;
      int in_block = 0;
      for (const int u : g.neighbors(v)) {
        if (u / size == k) ++in_block;
      }
      EXPECT_EQ(in_block, size - 1);
      // External degree stays tiny (<= 2 * bridges by construction).
      EXPECT_LE(g.degree(v) - in_block, 2 * bridges);
    }
  }
  // Expected edge count: cliques * C(size,2) + cliques * bridges.
  EXPECT_EQ(g.m(), static_cast<std::int64_t>(cliques) * size * (size - 1) /
                           2 +
                       static_cast<std::int64_t>(cliques) * bridges);
}

TEST(Generators, CavemanColorsAsPureCabals) {
  // End-to-end: the ring of cliques is the cabal-est instance; the
  // pipeline must color it with Delta + 1 colors.
  Rng rng(53);
  const auto g = caveman(5, 24, 2, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  const auto res = lowdeg::color_cluster_graph(
      rt, color::Params::defaults_for(g.n(), 59));
  cluster::check_proper_total(g, res.colors, res.num_colors);
}

}  // namespace
}  // namespace ccg::graph
