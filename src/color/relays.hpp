// Relay selection for anti-edges in the low-degree regime (paper,
// Lemma 9.2).
//
// Coloring a discovered anti-edge requires its two endpoints to exchange
// O(log n)-bit messages every MultiColorTrial round. At high degree the
// random groups of Lemma 4.4 carry this traffic, but they need
// Delta >> log^2 n; below that the paper designates a *relay* per
// anti-edge: a vertex adjacent to both endpoints, distinct across
// anti-edges, found by a maximal matching on the bipartite graph between
// anti-edges and a Theta(k/Delta)-sampled vertex set (each anti-edge sees
// Theta(k) sampled common neighbors w.h.p., and there are at most k
// anti-edges, so every anti-edge is matched w.h.p.).
//
// The maximal matching itself is proposal-based (the CONGEST matching of
// [Fis20] runs in O(log^2 Delta log N) rounds; the simulation runs
// synchronized proposal rounds and charges what it measures).
#pragma once

#include <utility>
#include <vector>

#include "color/coloring.hpp"

namespace ccg::color {

struct RelayResult {
  // Aligned with pairs: relay[i] is adjacent to both endpoints of pair i,
  // or -1 when pair i stayed unmatched.
  std::vector<int> relay;
  int proposal_rounds = 0;
  int escalations = 0;  // sampling-probability doublings (should be ~0)
};

// Finds pairwise-distinct relays for vertex-disjoint anti-edges inside
// clique `clique_id`. Every relay is adjacent (in H) to both endpoints of
// its pair and is not an endpoint of any pair. The matching saturates only
// w.h.p.: a pair left unmatched after the last sampling escalation keeps
// relay -1 and the caller must not color it through a relay (the
// low-degree cabal phase leaves both endpoints uncolored for its later
// steps and counts the pair in State::retry_count). `charge` = false
// skips ledger charges so batches over vertex-disjoint cliques charge one
// execution shape via find_relays_charge.
RelayResult find_relays(State& st, int clique_id,
                        const std::vector<std::pair<int, int>>& pairs,
                        bool charge = true);

// One parallel relay-selection execution's ledger shape.
void find_relays_charge(State& st, int proposal_rounds);

}  // namespace ccg::color
