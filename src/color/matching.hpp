// Colorful matchings (paper, Lemma 4.9 and Section 6).
//
// A colorful matching colors pairs of non-adjacent vertices (anti-edges)
// inside an almost-clique with a shared color, creating the reuse slack
// that lets the clique palette outlast |K| > Delta + 1.
//
// Two algorithms, as in the paper:
//  * colorful_matching_run — the sampling scheme of Lemma 4.9 (FGH+24):
//    works w.h.p. when the average anti-degree is Omega(log n).
//  * fingerprint_matching_into (one clique) and fingerprint_matching_batch
//    (many) — Algorithm 7, the paper's novel routine for the densest
//    cabals (a_K = O(log n)): repeated fingerprint trials locate
//    unique-maximum vertices; an anti-neighbor is sampled per trial via a
//    min-wise hash; surviving (u_i, w_i) pairs form an anti-edge matching
//    of size Omega(tau * â_K / eps) (Lemma 6.2).
#pragma once

#include <utility>
#include <vector>

#include "color/coloring.hpp"

namespace ccg::color {

// Lemma 4.9 matching on the given cliques; a clique stops once its palette
// repeat count reaches `target`. Costs O(kMatchingRounds) H-rounds. A
// round's verdict runs only for the proposers of a color that two
// non-adjacent members of their clique picked: no other color can commit.
// Round state lives in the State-owned scratch, so a warm call is
// allocation-free; read per-clique repeats off st.palettes afterwards.
void colorful_matching_run(State& st, const std::vector<int>& clique_ids,
                           int target);

// Algorithm 7 on one cabal: appends a matching of anti-edges (vertex
// pairs, each pair non-adjacent, pairwise disjoint) to *out. Does not
// color. `subset` restricts participation (e.g. to uncolored members when
// topping up a too-small sampling matching); nullptr = the whole clique.
// Runs inline on the calling thread (worker 0's scratch): with r =
// st.streams.round() on entry, the member draws come from stream round
// r + 1 and the per-trial min-wise hashes from round r + 2, and the call
// leaves the stream at r + 2. Fewer than two participants return at once
// and move neither the stream nor the ledger. `charge` = false skips
// ledger charges: executions in vertex-disjoint cliques are parallel, so
// a batch caller charges one execution shape
// (fingerprint_matching_charge) for the whole batch. Appending lets
// callers collect every cabal's pairs in one reusable buffer.
void fingerprint_matching_into(State& st, int clique_id,
                               const std::vector<int>* subset, bool charge,
                               std::vector<std::pair<int, int>>* out);

// Algorithm 7 on every clique of `cliques`, one task per clique over one
// fork of st.par, appending to *out exactly the pairs that calling
// fingerprint_matching_into on the cliques in list order would append, in
// that order, and leaving st.streams at the same round. Clique j's
// participants are subsets->at(j) (nullptr = every clique whole). Clique
// j runs at base[j], with base[0] = st.streams.round() on entry and
// base[j + 1] = base[j] + 2 when clique j has two or more participants,
// base[j] otherwise: each task draws from a copy of st.streams set to its
// own rounds, and the stream ends at base[J]. Each worker appends to its
// own pair buffer (WorkerScratch::fp_pairs); shards are static and
// contiguous, so concatenating the buffers in worker order is clique
// order. The cliques must be vertex-disjoint (they share one vertex ->
// member index array). Charges nothing: callers charge
// fingerprint_matching_charge once per batch. Allocation-free on warm
// scratch.
void fingerprint_matching_batch(State& st, const std::vector<int>& cliques,
                                const GroupLists* subsets,
                                std::vector<std::pair<int, int>>* out);

// One parallel Algorithm 7 execution's ledger shape.
void fingerprint_matching_charge(State& st);

// Algorithm 6 steps 2-3: colors each anti-edge pair with a common
// non-reserved color via synchronized pair-level trials. Returns the
// number of pairs colored. A pair that fails a trial while its endpoints'
// neighbors hold every non-reserved color leaves the trials at once; it
// and the pairs left after kMctMaxRounds trials stay
// uncolored, and their count is added to st.retry_count.
int color_anti_matching(State& st,
                        const std::vector<std::pair<int, int>>& pairs);

}  // namespace ccg::color
