// Unit tests: cluster graphs, the runtime's charge, validators.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_graph.hpp"
#include "cluster/runtime.hpp"
#include "cluster/validate.hpp"
#include "cluster/virtual_graph.hpp"
#include "exec/parallel_round.hpp"
#include "graph/generators.hpp"

namespace ccg::cluster {
namespace {

// The links of H-edge {u, v}, link(u, v, 0) through the last.
std::vector<std::pair<int, int>> links_of(const ClusterGraph& cg, int u,
                                          int v) {
  std::vector<std::pair<int, int>> out;
  for (int i = 0; i < cg.link_count(u, v); ++i) out.push_back(cg.link(u, v, i));
  return out;
}

TEST(ClusterGraph, SingletonIsCongest) {
  auto h = graph::cycle(6);
  const auto cg = ClusterGraph::singleton(h);
  EXPECT_EQ(cg.num_clusters(), 6);
  EXPECT_EQ(cg.n_machines(), 6);
  EXPECT_EQ(cg.dilation(), 0);
  EXPECT_EQ(cg.epoch_depth(), 1);
  for (int v = 0; v < 6; ++v) {
    EXPECT_EQ(cg.cluster(v).size(), 1);
    EXPECT_EQ(cg.cluster(v).leader(), v);
  }
  EXPECT_EQ(cg.link_count(0, 1), 1);
}

class ExpandShapes : public ::testing::TestWithParam<ClusterShape> {};

TEST_P(ExpandShapes, StructureInvariants) {
  Rng rng(7);
  const auto h = graph::gnm(30, 90, rng);
  ExpandSpec spec;
  spec.shape = GetParam();
  spec.size = 5;
  spec.links_per_edge = 2;
  const auto cg = ClusterGraph::expand(h, spec, rng);

  const int size = spec.shape == ClusterShape::kSingleton ? 1 : 5;
  EXPECT_EQ(cg.n_machines(), 30 * size);
  EXPECT_EQ(cg.num_clusters(), 30);
  EXPECT_EQ(cg.h().m(), h.m());

  for (int v = 0; v < 30; ++v) {
    const auto& c = cg.cluster(v);
    EXPECT_EQ(c.size(), size);
    // Every member maps back.
    for (const int m : c.members) {
      EXPECT_EQ(cg.cluster_of_machine(m), v);
    }
    // Support tree is a tree rooted at the leader.
    EXPECT_EQ(c.parent[0], -1);
    for (int i = 1; i < c.size(); ++i) {
      EXPECT_GE(c.parent[i], 0);
      EXPECT_LT(c.parent[i], i);
    }
  }
  // Every H-edge has >= 1 link; endpoints in right clusters (first in the
  // lower-id cluster).
  for (const auto& [u, v] : h.edges()) {
    const auto links = links_of(cg, u, v);
    EXPECT_GE(links.size(), 1u);
    EXPECT_LE(links.size(), 2u);
    for (const auto& [mu, mv] : links) {
      EXPECT_EQ(cg.cluster_of_machine(mu), std::min(u, v));
      EXPECT_EQ(cg.cluster_of_machine(mv), std::max(u, v));
      EXPECT_TRUE(cg.machines().has_edge(mu, mv));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, ExpandShapes,
    ::testing::Values(ClusterShape::kSingleton, ClusterShape::kStar,
                      ClusterShape::kPath, ClusterShape::kRandomTree,
                      ClusterShape::kBalancedBinary,
                      ClusterShape::kBridgePath));

// The links as one list per H-edge, built from G alone: walk
// machines().edges() in order, skip intra-cluster edges, put the lower
// cluster's machine first, and append the pair to its cluster pair's list.
std::map<std::pair<int, int>, std::vector<std::pair<int, int>>>
reference_links(const ClusterGraph& cg) {
  std::map<std::pair<int, int>, std::vector<std::pair<int, int>>> ref;
  for (const auto& [a, b] : cg.machines().edges()) {
    const int ca = cg.cluster_of_machine(a);
    const int cb = cg.cluster_of_machine(b);
    if (ca == cb) continue;
    ref[{std::min(ca, cb), std::max(ca, cb)}].push_back(
        ca < cb ? std::pair{a, b} : std::pair{b, a});
  }
  return ref;
}

// The links of (u, v) and of (v, u) equal the reference element by element
// on every H-edge, and edge_slot numbers the H-edges in edges() order.
void expect_links_match_reference(const ClusterGraph& cg,
                                  const std::string& label) {
  const auto ref = reference_links(cg);
  const auto edges = cg.h().edges();
  ASSERT_EQ(ref.size(), edges.size()) << label;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [u, v] = edges[i];
    EXPECT_EQ(cg.h().edge_slot(u, v), static_cast<std::int64_t>(i)) << label;
    EXPECT_EQ(cg.h().edge_slot(v, u), static_cast<std::int64_t>(i)) << label;
    const auto& want = ref.at({u, v});
    EXPECT_EQ(links_of(cg, u, v), want) << label << ": H-edge " << u << ","
                                        << v;
    EXPECT_EQ(links_of(cg, v, u), want) << label << ": H-edge " << v << ","
                                        << u;
  }
}

TEST(ClusterGraphLinks, MatchThePerEdgeListReference) {
  Rng rng(21);
  const auto h = graph::gnm(60, 300, rng);
  expect_links_match_reference(ClusterGraph::singleton(h), "singleton");
  for (const auto shape :
       {ClusterShape::kSingleton, ClusterShape::kStar, ClusterShape::kPath,
        ClusterShape::kRandomTree, ClusterShape::kBalancedBinary,
        ClusterShape::kBridgePath}) {
    for (const int per_edge : {1, 3}) {
      ExpandSpec spec;
      spec.shape = shape;
      spec.size = 4;
      spec.links_per_edge = per_edge;
      expect_links_match_reference(
          ClusterGraph::expand(h, spec, rng),
          "expand shape " + std::to_string(static_cast<int>(shape)) +
              " links_per_edge " + std::to_string(per_edge));
    }
  }
  const auto grid = graph::grid(8, 8);
  expect_links_match_reference(
      ClusterGraph::from_partition(grid, random_partition(grid, 10, rng)),
      "from_partition");
  expect_links_match_reference(
      VirtualGraph::distance_k(graph::grid(6, 5), 2).representation(),
      "distance_k 2");
}

TEST(ClusterGraphLinks, NonEdgeIsContractViolation) {
  const auto cg = ClusterGraph::singleton(graph::path(4));
  EXPECT_EQ(cg.link_count(2, 1), 1);
  for (const auto& [u, v] :
       std::vector<std::pair<int, int>>{{0, 2}, {1, 1}, {3, 4}}) {
    EXPECT_THROW(cg.link_count(u, v), ContractViolation) << u << "," << v;
    EXPECT_THROW(cg.link(u, v, 0), ContractViolation) << u << "," << v;
  }
  EXPECT_THROW(cg.link(2, 1, 1), ContractViolation);
  EXPECT_EQ(cg.h().edge_slot(0, 2), -1);
}

// A singleton's one link is the H-edge itself, (min, max) in either
// argument order, and it stores no per-edge link table: beyond H it holds
// only O(n) bytes (its clusters and the machine-to-cluster map).
TEST(ClusterGraphLinks, SingletonComputesItsLinks) {
  Rng rng(8);
  const auto h = graph::gnm(400, 12000, rng);
  const auto cg = ClusterGraph::singleton(h);
  for (const auto& [u, v] : h.edges()) {  // u < v
    EXPECT_EQ(cg.link(u, v, 0), std::pair(u, v));
    EXPECT_EQ(cg.link(v, u, 0), std::pair(u, v));
  }
  const auto n = static_cast<std::size_t>(h.n());
  const std::size_t per_vertex =
      sizeof(int) + sizeof(Cluster) + 3 * sizeof(int);
  ASSERT_GE(cg.heap_bytes(), h.heap_bytes());
  EXPECT_LE(cg.heap_bytes() - h.heap_bytes(), n * per_vertex);
}

TEST(ClusterGraph, SingletonKeepsOneCopyOfH) {
  Rng rng(4);
  const auto cg = ClusterGraph::singleton(graph::gnm(50, 200, rng));
  EXPECT_EQ(&cg.machines(), &cg.h());
  EXPECT_EQ(cg.n_machines(), cg.h().n());
  const auto copy = cg;  // a copy's machine graph is its own H
  EXPECT_EQ(&copy.machines(), &copy.h());
  EXPECT_EQ(copy.n_machines(), 50);
}

TEST(ClusterGraph, DilationByShape) {
  Rng rng(7);
  const auto h = graph::cycle(10);
  ExpandSpec spec;
  spec.size = 9;
  spec.shape = ClusterShape::kStar;
  EXPECT_EQ(ClusterGraph::expand(h, spec, rng).dilation(), 2);
  spec.shape = ClusterShape::kPath;
  EXPECT_EQ(ClusterGraph::expand(h, spec, rng).dilation(), 8);
  // 9-node heap tree: height 3, deepest leaf pair across subtrees at
  // distance 3 + 2.
  spec.shape = ClusterShape::kBalancedBinary;
  EXPECT_EQ(ClusterGraph::expand(h, spec, rng).dilation(), 3 + 2);
}

TEST(ClusterGraph, FromPartitionFigureOne) {
  // Reconstructs a Figure-1-style situation: a network partitioned into 4
  // clusters, H derived by cluster adjacency.
  Rng rng(9);
  const auto g = graph::grid(6, 6);
  const auto assign = random_partition(g, 4, rng);
  const auto cg = ClusterGraph::from_partition(g, assign);
  EXPECT_EQ(cg.num_clusters(), 4);
  EXPECT_EQ(cg.n_machines(), 36);
  // Every machine belongs to its assigned cluster; support trees span.
  int total = 0;
  for (int v = 0; v < 4; ++v) total += cg.cluster(v).size();
  EXPECT_EQ(total, 36);
  // H edges match cluster adjacency in G.
  for (const auto& [mu, mv] : g.edges()) {
    if (assign[mu] != assign[mv]) {
      EXPECT_TRUE(cg.h().has_edge(assign[mu], assign[mv]));
    }
  }
}

TEST(ClusterGraph, FromPartitionRejectsDisconnectedCluster) {
  auto g = graph::path(4);
  // Cluster {0, 3} is disconnected in the path.
  EXPECT_THROW(ClusterGraph::from_partition(g, {0, 1, 1, 0}),
               ContractViolation);
}

TEST(Validate, ProperColorings) {
  const auto h = graph::cycle(5);
  std::vector<int> ok{0, 1, 0, 1, 2};
  EXPECT_TRUE(is_proper_total(h, ok, 3));
  std::vector<int> bad{0, 0, 1, 0, 1};
  EXPECT_FALSE(is_proper_partial(h, bad));
  std::vector<int> partial{0, kUncolored, 0, 1, kUncolored};
  EXPECT_TRUE(is_proper_partial(h, partial));
  EXPECT_EQ(count_uncolored(partial), 2);
  EXPECT_THROW(check_proper_total(h, partial, 3), ContractViolation);

  // C_4000(±1..7): i and i±d (mod 4000) for d = 1..7, so i mod 8 is a
  // proper coloring with colors [0, 8). Every check below runs
  // sequentially and sharded at 1, 2, 4 and 8 workers.
  constexpr int n = 4000, k = 7;
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) {
    for (int d = 1; d <= k; ++d) edges.emplace_back(i, (i + d) % n);
  }
  const auto g = graph::Graph::from_edges(n, edges);
  std::vector<int> proper(n);
  for (int i = 0; i < n; ++i) proper[i] = i % (k + 1);
  // One conflicting edge {n - 2, n - 1}, read from row n - 2, which the
  // last shard holds at every worker count: no other vertex has color 8.
  auto conflict = proper;
  conflict[n - 2] = conflict[n - 1] = k + 1;
  // Vertex 0 is the lower endpoint of all its edges and uncolored, while
  // its upper neighbors keep their colors; n - 2 and n - 1 are an
  // uncolored edge.
  auto holes = proper;
  holes[0] = holes[n - 2] = holes[n - 1] = kUncolored;
  // Color 8 on a vertex none of whose neighbors has it: proper, out of
  // range for 8 colors.
  auto out_of_range = proper;
  out_of_range[n - 1] = k + 1;
  const auto check_all = [&](exec::ParallelRound* par,
                             const std::string& label) {
    EXPECT_TRUE(is_proper_partial(g, proper, par)) << label;
    EXPECT_TRUE(is_proper_total(g, proper, k + 1, par)) << label;
    EXPECT_NO_THROW(check_proper_total(g, proper, k + 1, par)) << label;

    EXPECT_FALSE(is_proper_partial(g, conflict, par)) << label;
    EXPECT_FALSE(is_proper_total(g, conflict, k + 2, par)) << label;
    EXPECT_THROW(check_proper_partial(g, conflict, par), ContractViolation)
        << label;
    EXPECT_THROW(check_proper_total(g, conflict, k + 2, par),
                 ContractViolation)
        << label;

    EXPECT_TRUE(is_proper_partial(g, holes, par)) << label;
    EXPECT_NO_THROW(check_proper_partial(g, holes, par)) << label;
    EXPECT_FALSE(is_proper_total(g, holes, k + 1, par)) << label;
    EXPECT_THROW(check_proper_total(g, holes, k + 1, par),
                 ContractViolation)
        << label;

    EXPECT_TRUE(is_proper_partial(g, out_of_range, par)) << label;
    EXPECT_TRUE(is_proper_total(g, out_of_range, k + 2, par)) << label;
    EXPECT_FALSE(is_proper_total(g, out_of_range, k + 1, par)) << label;
    EXPECT_THROW(check_proper_total(g, out_of_range, k + 1, par),
                 ContractViolation)
        << label;
  };
  check_all(nullptr, "sequential");
  for (const int threads : {1, 2, 4, 8}) {
    exec::ParallelRound par(threads);
    check_all(&par, "threads=" + std::to_string(threads));
  }
}

TEST(Ledger, EpochDepthDrivesGRounds) {
  Rng rng(3);
  const auto h = graph::cycle(8);
  ExpandSpec spec;
  spec.shape = ClusterShape::kPath;
  spec.size = 6;
  const auto cg = ClusterGraph::expand(h, spec, rng);
  net::Ledger ledger(64);
  Runtime rt(cg, ledger);
  rt.charge(1, 32);
  // One H-round costs epoch_depth G-rounds (2*height+1 = 11).
  EXPECT_EQ(ledger.g_rounds(), 2 * 5 + 1);
}

}  // namespace
}  // namespace ccg::cluster
