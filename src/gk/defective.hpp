// Weighted defective coloring (paper, Definition 9.5 and Lemma 9.6).
//
// Given non-negative edge weights w on the uncolored subgraph H[S], a
// weighted delta-relative q-coloring psi guarantees for every vertex
//
//   sum_{u in N(v): psi(u) = psi(v)} w(uv)  <=  delta * sum_{u} w(uv).
//
// Lemma 9.6 obtains one with q = O(1/delta^2) colors from an initial
// O(log^2 n)-proper coloring by repeated candidate-set reduction: in each
// iteration every vertex picks, from the candidate family of Eq. 18, a
// next-color approximately (factor 2) minimizing the weight of bichromatic
// neighbors sharing that candidate; the averaging argument bounds the
// per-iteration defect increase by 2 W_v / s_i, and the geometric schedule
// sum_i 2/s_i <= delta bounds the total.
//
// Calibration: the paper's schedule
// s_i = 2^(t-i+2)/delta makes the fixpoint color count (s_0 tau)^2 explode
// at laptop scale, so s_i is capped by Params::gk_s_cap; tests measure the
// achieved defect against the delta target directly.
#pragma once

#include <functional>
#include <vector>

#include "color/coloring.hpp"

namespace ccg::gk {

// Weight of the H-edge {u, v}; must be symmetric and >= 0.
using EdgeWeight = std::function<double(int, int)>;

struct DefectiveResult {
  // Color per vertex, aligned with the S passed in; values in [num_colors).
  std::vector<int> color_of;
  int num_colors = 0;
  int iterations = 0;  // candidate-reduction steps actually executed
};

// O(log^2 n)-style initial proper coloring of H[S] (paper cites [HN23,
// Thm 6.1]: O(1) rounds w.h.p.): random trials in a color space of size
// ~ (Delta_F + 1) * ceil(log2 n), which succeed per vertex per round with
// probability 1 - 1/log n; a greedy sweep mops up stragglers (counted by
// the caller via st.fallback_count semantics — here it simply never fails).
// Returns colors aligned with S plus the space size used.
std::pair<std::vector<int>, int> initial_proper_coloring(
    color::State& st, const std::vector<int>& S);

// Lemma 9.6. `psi0` (aligned with S, proper on H[S], colors < q0) seeds the
// reduction. Costs, per iteration: one H-round whose per-link message is
// the aggregated candidate-weight vector (field * weight_bits bits,
// chunked by the ledger).
DefectiveResult weighted_defective_coloring(color::State& st,
                                            const std::vector<int>& S,
                                            const EdgeWeight& w,
                                            std::vector<int> psi0, int q0,
                                            double delta_rel);

// Measured defect of psi: max over v of mono-weight(v) / total-weight(v)
// (vertices with zero total weight contribute 0). Test/bench helper.
double measured_relative_defect(const color::State& st,
                                const std::vector<int>& S,
                                const EdgeWeight& w,
                                const std::vector<int>& psi);

}  // namespace ccg::gk
