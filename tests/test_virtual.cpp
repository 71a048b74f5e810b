// Tests: virtual graphs with overlapping supports (paper, Appendix A).
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/validate.hpp"
#include "cluster/virtual_graph.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"

namespace ccg::cluster {
namespace {

TEST(VirtualGraph, Distance2MatchesGraphPower) {
  Rng rng(3);
  const auto g = graph::gnm(80, 200, rng);
  const auto vg = VirtualGraph::distance_k(g, 2);
  const auto p2 = graph::graph_power(g, 2);
  ASSERT_EQ(vg.h().n(), p2.n());
  EXPECT_EQ(vg.h().m(), p2.m());
  for (const auto& [u, v] : p2.edges()) {
    EXPECT_TRUE(vg.h().has_edge(u, v));
  }
}

TEST(VirtualGraph, Distance2CongestionAndDilationAreTwo) {
  // Appendix A.2: "congestion and dilation are both 2 for this particular
  // problem" (for graphs with at least one edge and a 2-path).
  const auto g = graph::grid(6, 6);
  const auto vg = VirtualGraph::distance_k(g, 2);
  EXPECT_EQ(vg.congestion(), 2);
  EXPECT_EQ(vg.dilation(), 2);
}

TEST(VirtualGraph, CopiesMapBackToBase) {
  const auto g = graph::path(5);
  const auto vg = VirtualGraph::distance_k(g, 2);
  // One copy machine per (support, base machine) incidence.
  const auto& rep = vg.representation();
  int copies = 0;
  for (int v = 0; v < rep.num_clusters(); ++v) {
    copies += static_cast<int>(rep.cluster(v).members.size());
  }
  // Total copies = sum of closed-neighborhood sizes = n + 2m.
  EXPECT_EQ(copies, g.n() + 2 * static_cast<int>(g.m()));
}

TEST(VirtualGraph, FromSupportsOverlapAdjacency) {
  // Supports: {0,1}, {1,2}, {3}: H-edges only where supports share a
  // machine.
  const auto g = graph::path(4);
  const auto vg =
      VirtualGraph::from_supports(g, {{0, 1}, {1, 2}, {3}});
  EXPECT_EQ(vg.h().n(), 3);
  EXPECT_TRUE(vg.h().has_edge(0, 1));
  EXPECT_FALSE(vg.h().has_edge(0, 2));
  EXPECT_FALSE(vg.h().has_edge(1, 2));
  EXPECT_EQ(vg.congestion(), 1);
}

TEST(VirtualGraph, DisconnectedSupportRejected) {
  const auto g = graph::path(4);
  EXPECT_THROW(VirtualGraph::from_supports(g, {{0, 2}, {1}}),
               ContractViolation);
}

TEST(VirtualGraph, HeavyOverlapRaisesCongestion) {
  // All supports contain the full path: every tree reuses the same links.
  const auto g = graph::path(4);
  std::vector<std::vector<int>> supports(5, {0, 1, 2, 3});
  const auto vg = VirtualGraph::from_supports(g, std::move(supports));
  EXPECT_EQ(vg.congestion(), 5);
  // H is a 5-clique (all supports overlap).
  EXPECT_EQ(vg.h().m(), 10);
}

TEST(VirtualColor, Distance2ColoringProper) {
  Rng rng(7);
  const auto g = graph::gnm(150, 450, rng);
  const auto vg = VirtualGraph::distance_k(g, 2);
  auto params = color::Params::defaults_for(vg.h().n(), 11);
  params.use_fingerprint_acd = false;
  params.measure_bits = false;
  const auto out =
      testing::solve(Problem::virtual_graph(vg), Algo::kAuto, params);
  ASSERT_TRUE(out.ok()) << out.error.message;
  const auto& res = out.result;
  // Proper on H = G^2 implies distance-2 proper on G; validated inside
  // the pipeline, re-checked here against base distances.
  for (int v = 0; v < g.n(); ++v) {
    for (const int u : g.neighbors(v)) {
      EXPECT_NE(res.colors[static_cast<std::size_t>(u)],
                res.colors[static_cast<std::size_t>(v)]);
      for (const int w : g.neighbors(u)) {
        if (w != v) {
          EXPECT_NE(res.colors[static_cast<std::size_t>(w)],
                    res.colors[static_cast<std::size_t>(v)]);
        }
      }
    }
  }
  EXPECT_EQ(out.congestion, 2);
  EXPECT_EQ(out.g_rounds_with_congestion, 2 * res.g_rounds);
  EXPECT_EQ(res.num_colors, vg.h().max_degree() + 1);
}

TEST(VirtualColor, OverlappingPartitionScenario) {
  // Overlapping clusters as in the Laplacian-framework setting
  // (Appendix A.1): grown BFS balls that share boundary machines.
  Rng rng(13);
  const auto g = graph::grid(12, 12);
  std::vector<std::vector<int>> supports;
  for (int cy = 1; cy < 12; cy += 3) {
    for (int cx = 1; cx < 12; cx += 3) {
      std::vector<int> ball;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int x = cx + dx, y = cy + dy;
          if (x >= 0 && x < 12 && y >= 0 && y < 12) {
            ball.push_back(y * 12 + x);
          }
        }
      }
      // Extend to overlap the next ball.
      if (cx + 2 < 12) ball.push_back(cy * 12 + cx + 2);
      supports.push_back(std::move(ball));
    }
  }
  const auto vg = VirtualGraph::from_supports(g, std::move(supports));
  auto params = color::Params::defaults_for(vg.h().n(), 17);
  params.use_fingerprint_acd = false;
  const auto out =
      testing::solve(Problem::virtual_graph(vg), Algo::kAuto, params);
  ASSERT_TRUE(out.ok()) << out.error.message;
  EXPECT_GE(out.congestion, 1);
  cluster::check_proper_total(vg.h(), out.result.colors,
                              out.result.num_colors);
}


// ---- line graphs: edge coloring as a virtual graph (Appendix A.2) ----

TEST(LineGraph, StructureMatchesSharedEndpoints) {
  const auto g = graph::grid(5, 4);
  const auto vg = make_line_graph(g);
  const auto edges = g.edges();
  ASSERT_EQ(vg.base().edges(), edges);
  ASSERT_EQ(vg.h().n(), static_cast<int>(edges.size()));
  // H-adjacency iff the two g-edges share an endpoint.
  for (int i = 0; i < vg.h().n(); ++i) {
    for (int j = i + 1; j < vg.h().n(); ++j) {
      const auto [a, b] = edges[static_cast<std::size_t>(i)];
      const auto [c, d] = edges[static_cast<std::size_t>(j)];
      const bool share = a == c || a == d || b == c || b == d;
      const auto& nb = vg.h().neighbors(i);
      const bool adj = std::binary_search(nb.begin(), nb.end(), j);
      EXPECT_EQ(share, adj) << "edges " << i << "," << j;
    }
  }
}

TEST(LineGraph, SupportTreesAreSingleLinks) {
  // Each support is one base edge: congestion and dilation both 1.
  const auto g = graph::cycle(24);
  const auto vg = make_line_graph(g);
  EXPECT_EQ(vg.congestion(), 1);
  EXPECT_LE(vg.dilation(), 1);
}

TEST(LineGraph, ProperEdgeColoringWithin2DeltaMinus1) {
  Rng rng(31);
  const auto g = graph::gnm(150, 450, rng);
  const auto vg = make_line_graph(g);
  const auto out =
      testing::solve(Problem::virtual_graph(vg), Algo::kAuto,
                     color::Params::defaults_for(vg.h().n(), 37));
  ASSERT_TRUE(out.ok()) << out.error.message;
  const auto& res = out.result;
  // Delta_H + 1 <= 2 Delta_g - 1 colors; properness on the line graph
  // means adjacent g-edges got distinct colors.
  EXPECT_LE(res.num_colors, 2 * g.max_degree() - 1);
  const auto edges = vg.base().edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    for (std::size_t j = i + 1; j < edges.size(); ++j) {
      const auto [a, b] = edges[i];
      const auto [c, d] = edges[j];
      if (a == c || a == d || b == c || b == d) {
        EXPECT_NE(res.colors[i], res.colors[j]);
      }
    }
  }
}

// ---- distance-k coloring through explicit-H supports ----

TEST(DistanceK, MatchesGraphPowerForKUpTo4) {
  const auto g = graph::grid(7, 7);
  for (const int k : {1, 2, 3, 4}) {
    const auto vg = VirtualGraph::distance_k(g, k);
    const auto pk = graph::graph_power(g, k);
    ASSERT_EQ(vg.h().n(), pk.n());
    EXPECT_EQ(vg.h().edges(), pk.edges()) << "k=" << k;
  }
}

TEST(DistanceK, Distance3ColoringIsProperOnGPower3) {
  const auto g = graph::grid(8, 6);
  const auto vg = VirtualGraph::distance_k(g, 3);
  const auto out =
      testing::solve(Problem::virtual_graph(vg), Algo::kAuto,
                     color::Params::defaults_for(vg.h().n(), 41));
  ASSERT_TRUE(out.ok()) << out.error.message;
  const auto p3 = graph::graph_power(g, 3);
  cluster::check_proper_total(p3, out.result.colors, out.result.num_colors);
  // Odd k: the radius-2 balls overlap beyond distance 3, so congestion
  // exceeds the distance-2 figure but the color count stays Delta_3 + 1.
  EXPECT_EQ(out.result.num_colors, p3.max_degree() + 1);
}

TEST(DistanceK, ExplicitHMustBeSubgraphOfOverlap) {
  // An H-edge between vertices with disjoint supports is rejected.
  const auto g = graph::path(6);
  graph::Graph h(3);
  h.add_edge(0, 2);
  h.finalize();
  EXPECT_THROW(VirtualGraph::from_supports_with_h(
                   g, h, {{0, 1}, {2, 3}, {4, 5}}),
               ContractViolation);
}

}  // namespace
}  // namespace ccg::cluster
