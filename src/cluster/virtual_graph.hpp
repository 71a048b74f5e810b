// Virtual graphs: cluster graphs with overlapping supports (paper,
// Appendix A, Definitions A.1/A.2).
//
// A virtual graph maps every vertex v of H to a connected *support*
// V(v) ⊆ V_G; supports may overlap, and H gets an edge {u, v} iff the
// supports share a machine (Definition A.1). Every algorithm in this
// library transfers with a multiplicative overhead equal to the *edge
// congestion*
//   c = max over G-links of the number of support trees using that link
// (Eq. 19): a machine sitting on c support trees simulates its c roles in
// c consecutive sub-rounds.
//
// The reduction implemented here is the standard simulation: each
// (machine, support) incidence becomes a *copy machine*, supports become
// disjoint clusters of copies, and an H-edge is realized through a shared
// machine's two copies (a zero-cost local hand-off, charged conservatively
// as a normal link). Running the ordinary pipeline on the disjoint
// representation and multiplying G-rounds by c is exactly the paper's
// "overhead proportional to the overlap" claim.
//
// The flagship instance is distance-2 coloring (Corollary 1.3 /
// Appendix A.2): supports = closed 1-hop balls, H = G^2, and both the
// congestion and the dilation equal 2.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/cluster_graph.hpp"

namespace ccg::cluster {

class VirtualGraph {
 public:
  // supports[v] must induce a connected subgraph of g and contain at
  // least one machine; H gets the edge {u, v} iff supports overlap.
  // roots[v] (optional) selects the support-tree root — the tree shape
  // determines the measured congestion, e.g. the distance-2 encoding
  // needs the star centered at v to achieve c = 2.
  static VirtualGraph from_supports(const graph::Graph& g,
                                    std::vector<std::vector<int>> supports,
                                    std::vector<int> roots = {});

  // Like from_supports, but the conflict graph is the given `h` (which
  // must be a subgraph of the overlap graph: every h-edge's supports must
  // share a machine). Definition A.1 only *requires* adjacent supports to
  // intersect, so any subgraph of the overlap graph is a legal H; this is
  // what distance-k coloring for odd k needs (radius-ceil(k/2) balls
  // overlap up to distance 2*ceil(k/2) > k).
  static VirtualGraph from_supports_with_h(
      const graph::Graph& g, const graph::Graph& h,
      std::vector<std::vector<int>> supports, std::vector<int> roots = {});

  // Distance-k coloring: H = g^k, supports = balls of radius ceil(k/2)
  // rooted at their centers (any two vertices within distance k have
  // intersecting balls). k = 1 degenerates to the CONGEST case; k = 2 is
  // Appendix A.2's encoding (supports = closed neighborhoods, congestion
  // and dilation 2).
  static VirtualGraph distance_k(const graph::Graph& g, int k);

  // The virtual (conflict) graph H.
  const graph::Graph& h() const { return representation_.h(); }
  // The base communication network.
  const graph::Graph& base() const { return base_; }
  // Disjoint copy-machine representation executing the algorithms.
  const ClusterGraph& representation() const { return representation_; }

  int congestion() const { return congestion_; }  // c of Eq. 19
  int dilation() const { return representation_.dilation(); }

  // Per-link bandwidth governed by the *base* network size.
  int default_bandwidth(int beta = 4) const;

  // Heap bytes held: the base network and the copy-machine representation
  // (whose clusters are the supports).
  std::size_t heap_bytes() const;

 private:
  static VirtualGraph build(const graph::Graph& g, const graph::Graph* h,
                            std::vector<std::vector<int>> supports,
                            std::vector<int> roots);

  graph::Graph base_;
  ClusterGraph representation_;
  int congestion_ = 1;
};

// Edge coloring as a virtual graph: H = the line graph of g (one H-vertex
// per g-edge, adjacent iff the edges share an endpoint), supports = the
// two endpoints of each edge. H-vertex i realizes the g-edge
// vg.base().edges()[i]. A proper (Delta_H + 1)-coloring of H is a
// (2 Delta_g - 1)-edge-coloring of g; every support tree is the single
// base link itself, so congestion and dilation are both 1.
VirtualGraph make_line_graph(const graph::Graph& g);

}  // namespace ccg::cluster
