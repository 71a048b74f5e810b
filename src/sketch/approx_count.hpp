// Distributed approximate counting on cluster graphs (paper, Lemma 5.7).
//
// Every vertex v estimates |{u in N_H(v) : pred(v, u)}| within (1 ± xi)
// by aggregating the coordinate-wise maximum of its selected neighbors'
// geometric variables over its support tree. The aggregation is simulated
// at machine level: each selected H-neighbor contributes through exactly
// one designated G-link ("cut all but one link" dedup, Section 1.1), and
// partial aggregates are carried up the support tree encoded with the
// deviation codec — the returned max_message_bits is the measured size of
// the largest such message, realizing the O(t + loglog d)-bit claim.
#pragma once

#include <functional>
#include <vector>

#include "cluster/runtime.hpp"
#include "common/rng.hpp"
#include "sketch/fingerprint.hpp"

namespace ccg::exec {
class ParallelRound;
}  // namespace ccg::exec

namespace ccg::sketch {

struct CountResult {
  std::vector<double> estimate;      // per H-vertex
  std::vector<Fingerprint> maxima;   // Y_v per H-vertex (for reuse)
  int max_message_bits = 0;          // largest encoded partial aggregate
};

// Both estimators charge the ledger for their aggregation epoch.
struct CountOptions {
  int t = 64;                // fingerprint width (Theta(xi^-2 log n))
  bool measure_bits = true;  // walk support trees and measure encodings;
                             // if false, charges the codec's expected size
                             // (2t + 16 bits) without the walk
};

using NeighborPredicate = std::function<bool(int v, int u)>;

// Raw per-vertex fingerprints (the X_{v,*} variables), shared by callers
// that estimate several quantities from one sampling: raw[v] is drawn
// from streams.rng_for(v) against the *current* round (bump between
// samplings — see common/rng.hpp). Sharded by `par` when present; draws
// are per-vertex disjoint, so the bits are identical for every worker
// count, 1 and nullptr included.
void sample_raw_fingerprints_stream(int n, int t, const StreamCtx& streams,
                                    exec::ParallelRound* par,
                                    std::vector<Fingerprint>* out);

// Y_v = coordinate-wise max over {u in N(v) : pred(v,u)} of raw[u];
// estimates the selected-neighborhood sizes. Cost: 1 H-round of
// max_message_bits bits. *out is rebound in place (estimate and every
// per-vertex maxima buffer keep their capacity), so warm callers aggregate
// without heap traffic when opt.measure_bits is off. The measured walk
// still builds its per-cluster temporaries.
void neighborhood_counts_into(cluster::Runtime& rt,
                              const std::vector<Fingerprint>& raw,
                              const NeighborPredicate& pred,
                              const CountOptions& opt, CountResult* out);

// For each H-edge (in h().edges() order), estimate |N(u) ∪ N(v)| from the
// union of the endpoints' neighborhood fingerprints (Lemma 5.8 step 2).
// Reuses Y from a prior neighborhood_counts_into run with the trivial
// predicate. *out is assigned in place (capacity kept); the per-edge joint
// fingerprint lives in one buffer reused across all edges.
void edge_union_estimates_into(cluster::Runtime& rt,
                               const CountResult& neighborhood,
                               const CountOptions& opt,
                               std::vector<double>* out);

}  // namespace ccg::sketch
