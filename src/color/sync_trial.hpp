// SynchronizedColorTrial (paper, Lemma 4.13 / Appendix D.9).
//
// Inside one almost-clique, the participating set S is enumerated with
// prefix sums on a clique BFS tree (Lemma 3.3); the leader draws an
// O(log n)-bit seed defining a pseudorandom permutation pi of [|S|], and
// the i-th vertex tries the pi(i)-th color of L(K) \ [r_K] fetched through
// the clique-palette query (Lemma 4.8). Colors are distinct inside K by
// construction, so a vertex is rejected only by external neighbors; w.h.p.
// at most O(max{e_K, ell}) members stay uncolored, even under adversarial
// external randomness.
#pragma once

#include <span>
#include <vector>

#include "color/coloring.hpp"

namespace ccg::color {

struct SyncTrialResult {
  int participated = 0;
  int colored = 0;
};

// Runs the trial in the given cliques *in parallel* (one charge per step).
// S_of[k-index] lists the participating uncolored members of clique
// clique_ids[k-index]; each S is trimmed to the clique palette's free
// non-reserved count if needed (Lemma 4.12 guarantees no trim w.h.p.).
// The span parameter accepts a std::vector<std::vector<int>> directly or a
// GroupLists::view() (scratch.hpp), so warm phase drivers pass reused
// storage. Per-clique tallies are written to *results when non-null
// (assign-reuse: a caller-owned vector keeps its capacity); the pipeline
// drivers pass nullptr and stay allocation-free.
void synchronized_color_trial(State& st,
                              const std::vector<int>& clique_ids,
                              std::span<const std::vector<int>> S_of,
                              std::vector<SyncTrialResult>* results);

}  // namespace ccg::color
