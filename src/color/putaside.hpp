// Put-aside sets and their recoloring (paper, Lemma 4.18 and Section 7).
//
// ComputePutAside withholds r uncolored inliers per cabal so the rest of
// the cabal keeps r colors of slack; put-aside sets of different cabals
// are independent (no edges), and few vertices of any cabal neighbor
// another cabal's put-aside set (Lemma 4.18 (1)-(3)).
//
// ColorPutAsideSets (Algorithm 8) colors them at the very end in O(1)
// rounds. If the clique palette still holds >= ell_s free colors, put-aside
// vertices grab free colors directly through hashed palette samples
// (TryFreeColors). Otherwise the cabal runs the paper's novel *three-way
// donation* (Fig. 4): candidate donors with unique colors and no external
// exposure are found (Algorithm 9), each uncolored vertex is matched to a
// distinct replacement color and a block-aligned set of safe donors
// (Algorithm 10), and finally the uncolored vertex takes a donor's color
// while the donor recolors itself with the replacement — all donation
// offers fitting in O(log n) bits thanks to the block-offset encoding
// (Eq. 11).
#pragma once

#include <span>
#include <vector>

#include "color/coloring.hpp"
#include "color/scratch.hpp"

namespace ccg::color {

// r = number of reserved colors in cabals (identical across cabals,
// Section 4.3). Eligible vertices are the uncolored inliers of each cabal.
// Writes the sets (aligned with cabal_ids) into caller-owned grow-only
// storage — the pipeline passes st.ph.putsets, so warm runs reuse every
// inner list. Returns the attempt count; *property3_ok reports the
// measured Lemma 4.18 (3) check. The randomized attempts yield sets of
// exactly r; when all fail, the greedy fallback may leave a cabal with
// fewer than r (its eligible inliers clash with other cabals' sets). It
// keeps the short set and adds the missing count to st.retry_count; the
// cabal's other uncolored inliers go through steps 4-5 instead.
int compute_putaside(State& st, const std::vector<int>& cabal_ids, int r,
                     GroupLists* sets, bool* property3_ok);

struct DonationStats {
  int free_path_cliques = 0;      // cabals that took TryFreeColors
  int donation_path_cliques = 0;  // cabals that ran the 3-way donation
  int free_colored = 0;
  int donated = 0;
  int fallbacks = 0;  // vertices rescued by the safety net
};

// The span accepts a std::vector<std::vector<int>> directly or a
// GroupLists::view() (the pipeline passes st.ph.putsets.view()).
DonationStats color_putaside_sets(State& st,
                                  const std::vector<int>& cabal_ids,
                                  std::span<const std::vector<int>> sets);

}  // namespace ccg::color
