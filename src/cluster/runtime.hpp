// Execution runtime for algorithms on cluster graphs.
//
// Semantics vs. cost: helper computations are *pure* (they produce exactly
// what the distributed protocol would produce) and the algorithm charges
// each parallel super-step once through charge(...); see src/net/ledger.hpp
// for the cost model. Helpers document their cost in H-rounds so call sites
// read like the paper's pseudo-code.
//
// H-level trees (HTree) realize Lemma 3.2: a BFS tree of H[subset] whose
// induced G-tree has height <= d * hops; aggregation over an HTree charges
// O(height) H-rounds at the call site. Prefix sums realize Lemma 3.3.
// Random groups realize Lemma 4.4.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/cluster_graph.hpp"
#include "common/rng.hpp"
#include "net/ledger.hpp"

namespace ccg::cluster {

// BFS tree over a subset of H-vertices. members[0] is the root and members
// are in BFS discovery order (ancestors precede descendants), which is the
// total order used by prefix sums (Lemma 3.3).
struct HTree {
  std::vector<int> members;  // H-vertex ids
  std::vector<int> parent;   // index into members; -1 for the root
  std::vector<int> depth;    // hop distance from the root
  int height = 0;

  int size() const { return static_cast<int>(members.size()); }
};

class Runtime {
 public:
  Runtime(const ClusterGraph& cg, net::Ledger& ledger)
      : cg_(&cg), ledger_(&ledger), delta_(cg.h().max_degree()) {}

  // Point the runtime at a different (cluster graph, ledger) pair. The
  // batch service (src/svc/) keeps one Runtime per worker slot and
  // rebinds it per job: no members own storage, so this never allocates.
  void rebind(const ClusterGraph& cg, net::Ledger& ledger) {
    cg_ = &cg;
    ledger_ = &ledger;
    delta_ = cg.h().max_degree();
  }

  const ClusterGraph& cg() const { return *cg_; }
  const graph::Graph& h() const { return cg_->h(); }
  net::Ledger& ledger() { return *ledger_; }
  int delta() const { return delta_; }
  int n() const { return cg_->num_clusters(); }

  // Charge `h_rounds` parallel super-steps whose largest per-link message
  // is `message_bits` bits.
  void charge(int h_rounds, int message_bits);

  // ---- Lemma 3.2: parallel BFS on vertex-disjoint subgraphs ----
  // BFS tree of H[subset] from `root`, truncated at max_hops. Vertices of
  // `subset` unreachable within max_hops are omitted.
  // Cost at call site: max_hops H-rounds (O(log n)-bit messages).
  HTree build_htree(const std::vector<int>& subset, int root,
                    int max_hops) const;

  // ---- tree aggregation / broadcast over an HTree ----
  // Bottom-up combine; returns the root value. Cost: height H-rounds.
  template <class T, class Combine>
  T tree_aggregate(const HTree& t, const std::vector<T>& values,
                   Combine comb) const {
    CCG_CHECK(values.size() == t.members.size());
    std::vector<T> acc = values;
    for (int i = t.size() - 1; i >= 1; --i) {
      const int p = t.parent[static_cast<std::size_t>(i)];
      acc[static_cast<std::size_t>(p)] =
          comb(acc[static_cast<std::size_t>(p)],
               acc[static_cast<std::size_t>(i)]);
    }
    return acc.front();
  }

  // ---- Lemma 3.3: prefix sums over the HTree order ----
  // Returns, for every member position i, sum of values[j] for j < i in
  // member order (exclusive scan). Cost: O(height) H-rounds.
  std::vector<std::int64_t> prefix_sums(
      const HTree& t, const std::vector<std::int64_t>& values) const;

  // ---- Lemma 4.4: random groups inside an almost-clique ----
  // Each member of `members` picks a uniform group in [x]. Returns the
  // group id aligned with `members`. The lemma's guarantees (group sizes
  // Theta(|K|/x), every vertex adjacent to > half of each group) hold
  // w.h.p. when |K|/x = Omega(log n); verify_random_groups checks them.
  std::vector<int> random_groups(const std::vector<int>& members, int x,
                                 Rng& rng) const;
  bool verify_random_groups(const std::vector<int>& members,
                            const std::vector<int>& group_of, int x) const;

  // Neighbors of v in H restricted to a membership predicate.
  // Buffer-out + templated on the predicate: no std::function type
  // erasure, no allocation when `out` is reused across calls.
  template <class Pred>
  void neighbors_where(int v, Pred&& pred, std::vector<int>* out) const {
    out->clear();
    for (const int u : h().neighbors(v)) {
      if (pred(u)) out->push_back(u);
    }
  }
  std::vector<int> neighbors_where(
      int v, const std::function<bool(int)>& pred) const;

 private:
  const ClusterGraph* cg_;
  net::Ledger* ledger_;
  int delta_;
};

}  // namespace ccg::cluster
