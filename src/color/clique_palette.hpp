// The clique palette as a distributed data structure (paper, Lemma 4.8).
//
// For an almost-clique K under coloring phi, L_phi(K) = [Delta+1] \ phi(K)
// is the set of colors unused in K. Vertices of K cannot hold L(K) locally
// (it can be Theta(Delta log Delta) bits) but can *query* it: count the
// free colors in a range, or fetch the i-th free color of a range, each in
// O(1) H-rounds via tree aggregation. This class is the sequential
// realization; call sites charge the O(1)-round cost per Lemma 4.8.
//
// It also tracks color multiplicities, giving M_K = |K ∩ dom phi| - |phi(K)|
// (the colorful-matching size / reuse-slack measure used throughout
// Sections 4.2/4.3).
//
// Representation: a word-parallel ColorSet over the used-color indicator
// (bit c set iff mult_[c] > 0). Range counts are masked popcounts and
// selects are a popcount walk — O(palette words) instead of the former
// Fenwick tree's O(log^2 Delta) per select — with identical results: the
// i-th free/used color of [lo, hi] in increasing color order.
#pragma once

#include <vector>

#include "color/color_set.hpp"
#include "common/assert.hpp"

namespace ccg::color {

class CliquePalette {
 public:
  explicit CliquePalette(int num_colors);

  // Re-target this palette to a fresh clique/run: everything free, counts
  // zero. Grow-only (assign + ColorSet::rebind keep capacity), so warm
  // State arenas rebind their palette set without heap traffic.
  void rebind(int num_colors) {
    num_colors_ = num_colors;
    colored_total_ = 0;
    mult_.assign(static_cast<std::size_t>(num_colors), 0);
    used_.rebind(num_colors);
  }

  void add(int c);     // a member of K adopted color c
  void remove(int c);  // a member of K dropped color c

  int num_colors() const { return num_colors_; }
  // Count of colors of [lo, hi] used by at least one member.
  int used_distinct(int lo, int hi) const;
  // |L(K) ∩ [lo, hi]|: free colors in the range.
  int free_count(int lo, int hi) const;
  // i-th (0-based) free color in [lo, hi]; -1 if fewer than i+1 exist.
  int select_free(int lo, int hi, int i) const;

  int colored_total() const { return colored_total_; }
  int distinct_total() const { return used_.count(); }
  // Reuse slack M_K: members colored minus distinct colors used.
  int repeats() const { return colored_total_ - distinct_total(); }

  // Multiplicity of one color.
  int count(int c) const { return mult_[static_cast<std::size_t>(c)]; }

  // The used-color indicator, for word-wise consumers (benches, batched
  // free-color enumeration in synchronized_color_trial).
  const ColorSet& used() const { return used_; }

 private:
  int num_colors_;
  int colored_total_ = 0;
  std::vector<int> mult_;
  ColorSet used_;  // bit c set iff mult_[c] > 0
};

}  // namespace ccg::color
