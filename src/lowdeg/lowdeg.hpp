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

// Theorem 1.1 path; proper (Delta+1)-coloring for any Delta. Runs the
// whole phase sequence (incl. the safety net and the properness check) on
// `st`, which must be freshly constructed or color::State::reset. Read
// results off st (phi, the runtime's ledger) or via
// color::finalize_result(st).
void run_low_degree(color::State& st);

// The one regime switch: Delta >= params.delta_low(n) runs the Theorem 1.2
// pipeline (color::run_high_degree), anything below it the Theorem 1.1
// pipeline (run_low_degree). ccg::Solver's Algo::kAuto calls it for
// cluster and virtual problems alike; a virtual graph runs on its
// copy-machine representation unchanged (Appendix A), so the State must
// be bound to vg.representation() and the caller applies the congestion.
void run_auto(color::State& st);

}  // namespace ccg::lowdeg
