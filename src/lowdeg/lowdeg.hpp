// Low-degree cluster-graph coloring (paper, Section 9, Theorem 1.1):
// O(d * polyloglog n) rounds for Delta <= Delta_low.
//
// Both regimes share the degree-reduce -> learn-colors -> shatter ->
// finish-small-components skeleton (Algorithm 15):
//  * logarithmic regime (Delta = O(log n)): palettes fit in O(log n)-bit
//    bitmaps, so vertices sample from their true palette directly
//    (Algorithm 12 — no reduction/learning needed);
//  * polylogarithmic regime (Algorithm 13): ACD with the cabal threshold
//    moved to Theta(log n), slack generation outside cabals, then sparse /
//    non-cabal / cabal vertices each run Algorithm 15 with their own color
//    source ([Delta+1] or the clique palette).
//
// Shattering is BEPS-style: O(loglog n) random trials from learned lists
// leave components of size poly(log n). Components are finished by
// randomized (deg+1)-list coloring rounds — the paper derandomizes this
// step with Ghaffari-Kuhn local rounding (Lemma 9.1) to strengthen the
// success probability; the simulation runs the randomized finisher and
// reports measured rounds.
#pragma once

#include "color/pipeline.hpp"

namespace ccg::lowdeg {

// Theorem 1.1 path; proper (Delta+1)-coloring for any Delta.
color::Result color_low_degree(cluster::Runtime& rt,
                               const color::Params& params);

// State-reuse form of color_low_degree: runs the same phase sequence
// (incl. the safety net and the properness check) on a caller-provided
// state, which must be freshly constructed or color::State::reset. This
// is the warm serving path of ccg::Solver / the batch service: one State
// per session, reset between jobs, so recurring low-degree jobs skip the
// per-job arena construction entirely. Read results off st (phi, the
// runtime's ledger) or via color::finalize_result(st);
// color_low_degree(rt, params) is exactly State + run + finalize.
void run_low_degree(color::State& st);

// Entry point used by examples/benches: dispatches on Delta vs
// params.delta_low(n) between the Theorem 1.2 and Theorem 1.1 pipelines.
color::Result color_cluster_graph(cluster::Runtime& rt,
                                  const color::Params& params);

}  // namespace ccg::lowdeg
