// Cluster graphs (paper, Definition 3.1).
//
// A cluster graph H over a communication network G partitions the machines
// V_G into disjoint connected clusters V(v); H has an edge {u, v} iff some
// G-link connects V(u) and V(v). Each cluster elects a leader and carries a
// support tree T(v) spanning V(v); one H-round is broadcast on T(v) +
// inter-cluster edge computation + aggregation on T(v) (Section 3.2).
//
// Three constructions are provided:
//  * singleton  — every machine is its own cluster: H = G, the CONGEST case
//                 (one copy of the graph serves as both H and G, and each
//                 H-edge is its own link, so no link table is stored).
//  * expand     — start from the conflict graph H and *build* G by blowing
//                 every vertex up into a cluster of a chosen shape. This is
//                 the controlled direction used by benches; the BridgePath
//                 shape reproduces the adversarial topology of Figures 2/3
//                 (all inter-cluster information crosses one bridge link).
//  * from_partition — start from G plus a machine->cluster assignment and
//                 derive H, the direction of Definition 3.1 / Figure 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace ccg::cluster {

struct Cluster {
  std::vector<int> members;  // machine ids; members[0] is the leader
  std::vector<int> parent;   // support-tree parent as *member index*; -1 root
  std::vector<int> depth;    // member depth in the support tree
  int height = 0;            // max depth
  int diameter = 0;          // support-tree diameter in G-edges

  int size() const { return static_cast<int>(members.size()); }
  int leader() const { return members.front(); }
};

enum class ClusterShape {
  kSingleton,       // one machine
  kStar,            // leader center, size-1 leaves
  kPath,            // path; leader at one end
  kRandomTree,      // uniform random recursive tree
  kBalancedBinary,  // complete-ish binary tree
  kBridgePath,      // path whose inter-cluster links attach only at the two
                    // ends, split by neighbor parity (Fig. 2/3 topology)
};

struct ExpandSpec {
  ClusterShape shape = ClusterShape::kStar;
  int size = 4;            // machines per cluster, >= 1
  int links_per_edge = 1;  // parallel G-links per H-edge, >= 1
};

class ClusterGraph {
 public:
  static ClusterGraph singleton(graph::Graph h);
  static ClusterGraph expand(const graph::Graph& h, const ExpandSpec& spec,
                             Rng& rng);
  static ClusterGraph from_partition(graph::Graph g,
                                     std::vector<int> cluster_of);

  const graph::Graph& h() const { return h_; }
  // The communication network G. A singleton layout keeps one copy of the
  // graph: there G is H, and machines() returns h().
  const graph::Graph& machines() const {
    return machines_ ? *machines_ : h_;
  }
  int num_clusters() const { return h_.n(); }
  int n_machines() const { return machines().n(); }

  const Cluster& cluster(int v) const {
    return clusters_[static_cast<std::size_t>(v)];
  }
  int cluster_of_machine(int m) const {
    return cluster_of_[static_cast<std::size_t>(m)];
  }

  // Max support-tree diameter: the paper's dilation d.
  int dilation() const { return dilation_; }
  // G-rounds consumed by one <=B-bit H-round chunk: down + across + up.
  int epoch_depth() const { return 2 * max_height_ + 1; }

  // G-links realizing H-edge {u, v} (either argument order) as machine
  // pairs, normalized so that pair.first lives in the lower-id cluster of
  // {u, v}: link_count(u, v) >= 1 of them (parallel links allowed), and
  // link(u, v, i) is the i-th, 0 <= i < link_count(u, v). Order: a
  // singleton's one link is (min(u, v), max(u, v)), computed rather than
  // stored; expand lists its distinct draws ascending by (first, second);
  // from_partition lists them in G's edges() order. Both throw
  // ContractViolation when {u, v} is not an H-edge, and link() also when i
  // is out of range.
  int link_count(int u, int v) const;
  std::pair<int, int> link(int u, int v, int i) const;

  // Default per-link bandwidth B = beta * ceil(log2 n_machines).
  int default_bandwidth(int beta = 4) const;

  // Heap bytes held: H, the machine graph when it is not H, the clusters,
  // the machine-to-cluster map and the link arrays (vector capacities; a
  // singleton's link arrays are empty).
  std::size_t heap_bytes() const;

 private:
  graph::Graph h_;
  std::optional<graph::Graph> machines_;  // G; empty when G is H
  std::vector<int> cluster_of_;
  std::vector<Cluster> clusters_;
  // Links as CSR over H's edge slots (graph::Graph::edge_slot): slot e owns
  // link_pairs_[link_off_[e], link_off_[e + 1]); link_off_ has m + 1
  // entries. Both are empty for a singleton, whose links are H's edges.
  std::vector<std::int64_t> link_off_;
  std::vector<std::pair<int, int>> link_pairs_;
  int dilation_ = 0;
  int max_height_ = 0;
};

// Grow `k` clusters over G by parallel multi-source BFS from random seeds;
// returns a machine->cluster assignment with connected clusters covering G.
// Requires G connected.
std::vector<int> random_partition(const graph::Graph& g, int k, Rng& rng);

}  // namespace ccg::cluster
