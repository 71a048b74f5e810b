// MultiColorTrial (paper, Lemma D.1 / Algorithm 16).
//
// Vertices with slack linear in their uncolored degree get fully colored in
// O(gamma^-1 log* n) rounds by trying exponentially growing pseudo-random
// color sets: a vertex adopts a tried color iff it is free among colored
// neighbors AND absent from every active neighbor's tried set. Color sets
// are derived from O(log n)-bit seeds (substituting the paper's
// representative-set families), so one round moves O(log n) bits plus an
// x-bit response bitmap.
#pragma once

#include <functional>
#include <vector>

#include "color/coloring.hpp"

namespace ccg::color {

// Writes up to x candidate colors for v into `out` (cleared first;
// duplicates allowed — sampling is with replacement as in
// TryPseudorandomColors). Buffer-out so the trial loop can reuse one
// buffer across vertices and stay allocation-free in steady state.
using SetSampler =
    std::function<void(int v, int x, Rng& rng, std::vector<int>* out)>;

// Each round tries x colors per vertex: x starts at 1 and doubles every
// round up to 2 * ceil(log2 n).
struct MctOptions {
  int max_rounds = kMctMaxRounds;
  // Guaranteed slack lower bound per vertex: caps x so that
  // x * active_degree <= slack (Lemma D.2's hypothesis).
  std::function<int(int v)> slack;
};

// Runs MCT over *S until everything is colored or the budget runs out; on
// return *S holds the leftover uncolored vertices (empty on success).
// Phase drivers pass a reused scratch buffer.
void multicolor_trial(State& st, std::vector<int>* S,
                      const SetSampler& sampler, const MctOptions& opt);

// ---- stock set samplers ----

// x colors uniform in {prefix, ..., num_colors-1}.
SetSampler uniform_set_sampler(int num_colors, int prefix);

// x colors uniform in [0, st.dc.r_of(v)) — the reserved-color space used
// in cabals (Algorithm 5 step 5) and in Complete's phase II. Captures only
// the State reference, so constructing the sampler stays inside
// std::function's small-buffer storage — no heap traffic on the warm
// pipeline paths.
SetSampler reserved_set_sampler(const State& st);

// Algorithm 16 with the genuine representative-set families of
// Definition C.5: Y(v) is a uniform member of a globally known family over
// {prefix, ..., num_colors-1}; X(v) is x uniform picks inside Y(v). The
// broadcast is the member index — O(log n) bits, same as the PRG-set
// substitute this replaces (enabled by Params::use_representative_sets).
SetSampler representative_set_sampler(int num_colors, int prefix,
                                      std::uint64_t family_seed);

}  // namespace ccg::color
