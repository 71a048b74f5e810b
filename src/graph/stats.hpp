// Exact (ground-truth) structural statistics of a graph to be colored.
//
// These are the quantities the distributed algorithm can only approximate
// (sparsity zeta_v of Definition 4.1, anti-degrees, external degrees); we
// compute them exactly here for generators, validators, and benches that
// compare estimate vs truth.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace ccg::graph {

// Number of common neighbors |N(u) ∩ N(v)|.
int common_neighbors(const Graph& g, int u, int v);

// Sparsity of v per Definition 4.1:
//   zeta_v = (1/Delta) * [ C(Delta,2) - (1/2) * sum_{u in N(v)} |N(u)∩N(v)| ].
// `delta` is the maximum degree used in the formula (pass g.max_degree()).
double sparsity(const Graph& g, int v, int delta);

// Given a dense-cluster assignment (clique_of[v] >= 0 for dense vertices,
// -1 for sparse), the per-vertex external degree e_v = |N(v) \ K_v| and
// anti-degree a_v = |K_v \ N(v)| - 1 omitted... a_v counts non-neighbors
// inside K_v excluding v itself (paper, Section 4.1).
struct DenseDegrees {
  std::vector<int> external;  // e_v; 0 for sparse vertices
  std::vector<int> anti;      // a_v; 0 for sparse vertices
};
DenseDegrees dense_degrees(const Graph& g, const std::vector<int>& clique_of);

}  // namespace ccg::graph
