// Execution runtime for algorithms on cluster graphs.
//
// Semantics vs. cost: algorithms compute directly what the distributed
// protocol would produce and charge each parallel super-step once through
// charge(...); see src/net/ledger.hpp for the cost model. This holds for
// the paper's communication primitives too (Lemma 3.2's BFS trees and tree
// aggregation, Lemma 3.3's prefix sums, Lemma 4.4's random groups): call
// sites compute their results in place and charge their cost in H-rounds,
// so they read like the paper's pseudo-code.
#pragma once

#include "cluster/cluster_graph.hpp"
#include "net/ledger.hpp"

namespace ccg::cluster {

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

 private:
  const ClusterGraph* cg_;
  net::Ledger* ledger_;
  int delta_;
};

}  // namespace ccg::cluster
