// Elementary randomized color-trial primitives.
//
// TryColor (paper, Algorithm 17 / Lemma D.3): activated vertices sample one
// candidate color and adopt it when it conflicts neither with a colored
// neighbor nor with a smaller-ID active neighbor's simultaneous candidate.
// Each round shrinks uncolored degrees by a constant factor while the
// sampler keeps Omega(1) success probability.
#pragma once

#include <functional>
#include <vector>

#include "color/coloring.hpp"

namespace ccg::color {

// Returns a candidate color for v this round, or -1 to sit out. Called once
// per vertex per round, before any adoption, so palette-backed samplers see
// a stable snapshot.
using ColorSampler = std::function<int(int v, Rng& rng)>;

// One synchronized TryColor round over the uncolored vertices of S.
// Charges 2 H-rounds of O(log n)-bit messages. Returns # newly colored.
// Runs entirely on State::scratch: zero heap allocations in steady state.
int try_color_round(State& st, const std::vector<int>& S,
                    const ColorSampler& sampler, double activation);

// `rounds` TryColor rounds; *S is pruned of colored vertices as rounds
// progress (on return it holds the still-uncolored survivors), so phase
// drivers run rounds on a reused scratch buffer. Returns total newly
// colored.
int try_color_rounds(State& st, std::vector<int>* S,
                     const ColorSampler& sampler, double activation,
                     int rounds);

// ---- stock samplers ----

// Uniform over {prefix, ..., num_colors-1} (excludes the reserved prefix).
ColorSampler uniform_sampler(int num_colors, int prefix);

// Uniform over L(K_v) \ [r_K] via clique-palette queries (Lemma 4.8;
// O(1) rounds, already covered by the round's charge), r_K =
// st.dc.r_of(v) read at draw time. Vertices outside any clique sit out.
// Captures only the State reference — fits std::function's small-buffer
// storage, so the warm pipeline paths construct it without heap traffic.
ColorSampler clique_palette_sampler(State& st);

// Uncolored vertices of S into `out` (cleared first). `out` must not alias
// S. Reuse the buffer to stay allocation-free.
void uncolored_of(const State& st, const std::vector<int>& S,
                  std::vector<int>* out);

// In-place variant: drops colored vertices from S, preserving order.
void prune_colored(const State& st, std::vector<int>* S);

}  // namespace ccg::color
