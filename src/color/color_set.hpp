// Word-parallel color sets: the single palette representation behind
// every free-color scan in the library.
//
// A ColorSet is a dense bitset over the color universe [0, num_colors).
// In the paper's regime a palette has Delta+1 ≈ 257 colors, so the whole
// set fits in 4-5 uint64 words: clearing is an epoch-free O(words) fill,
// membership is one mask, and "smallest free color" is a complement walk
// plus ctz instead of a color-by-color scan. Every former epoch-stamp
// idiom (ColorMarks, clique-palette Fenwick selects, the TryFreeColors
// external-color probes) now goes through this type.
//
// Determinism contract: queries are pure functions of the set's contents.
// select_free_in / select_in return the i-th candidate in increasing
// color order — exactly what the sequential color-by-color reference scan
// returns — so migrating a consumer onto ColorSet never changes which
// color *index* it picks, only how fast it finds it.
//
// Allocation contract: storage grows monotonically to its high-water
// capacity (`rebind` never shrinks), so a ColorSet owned by State /
// WorkerScratch is allocation-free in steady state and safe on the warm
// serving fast path (0 allocs/job, enforced by bench_serving).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace ccg::color {

class ColorSet {
 public:
  // Rebind to a universe of num_colors colors and clear. O(active words);
  // allocates only when num_colors exceeds every previous rebind.
  void rebind(int num_colors) {
    CCG_ASSERT(num_colors >= 0);
    num_colors_ = num_colors;
    const std::size_t w = words_needed(num_colors);
    if (words_.size() < w) words_.resize(w, 0);
    clear();
  }

  int num_colors() const { return num_colors_; }

  // Remove every color. O(active words), no epoch bookkeeping: at
  // palette scale this is cheaper than stamping ever was.
  void clear() {
    std::fill_n(words_.begin(),
                static_cast<std::ptrdiff_t>(words_needed(num_colors_)), 0u);
  }

  void add(int c) {
    CCG_ASSERT(c >= 0 && c < num_colors_);
    words_[word_of(c)] |= bit_of(c);
  }
  void remove(int c) {
    CCG_ASSERT(c >= 0 && c < num_colors_);
    words_[word_of(c)] &= ~bit_of(c);
  }
  bool contains(int c) const {
    CCG_ASSERT(c >= 0 && c < num_colors_);
    return (words_[word_of(c)] & bit_of(c)) != 0;
  }

  // |set|. Exact because bits at and above num_colors_ are never set
  // (add() asserts, and the word-wise ops below mask the tail).
  int count() const {
    const std::size_t aw = words_needed(num_colors_);
    int s = 0;
    for (std::size_t w = 0; w < aw; ++w) s += bits::popcount64(words_[w]);
    return s;
  }

  // |set ∩ [lo, hi]|. lo > hi is an empty range.
  int count_in(int lo, int hi) const {
    if (lo > hi) return 0;
    CCG_ASSERT(lo >= 0 && hi < num_colors_);
    return masked_count(lo, hi, /*complement=*/false);
  }
  // |[lo, hi] \ set|: free colors in the range.
  int free_count_in(int lo, int hi) const {
    if (lo > hi) return 0;
    CCG_ASSERT(lo >= 0 && hi < num_colors_);
    return masked_count(lo, hi, /*complement=*/true);
  }

  // i-th (0-based) member of set ∩ [lo, hi] in increasing order, or -1
  // when the range holds fewer than i+1 members.
  int select_in(int lo, int hi, int i) const {
    CCG_ASSERT(i >= 0);
    if (lo > hi) return -1;
    CCG_ASSERT(lo >= 0 && hi < num_colors_);
    return masked_select(lo, hi, i, /*complement=*/false);
  }
  // i-th (0-based) free color in [lo, hi] in increasing order, or -1.
  int select_free_in(int lo, int hi, int i) const {
    CCG_ASSERT(i >= 0);
    if (lo > hi) return -1;
    CCG_ASSERT(lo >= 0 && hi < num_colors_);
    return masked_select(lo, hi, i, /*complement=*/true);
  }

  // Smallest color not in the set, or -1 when the set is full. The word
  // walk skips all-ones words; ctz finds the first zero bit.
  int first_free() const { return next_free(0); }

  // Smallest member >= from, or -1.
  int next_set(int from) const {
    CCG_ASSERT(from >= 0);
    if (from >= num_colors_) return -1;
    const std::size_t aw = words_needed(num_colors_);
    std::size_t w = word_of(from);
    std::uint64_t cur = words_[w] & ones_from(from & 63);
    while (true) {
      if (cur != 0) return static_cast<int>(w * 64) + bits::ctz64(cur);
      if (++w >= aw) return -1;
      cur = words_[w];
    }
  }
  // Smallest free color >= from, or -1.
  int next_free(int from) const {
    CCG_ASSERT(from >= 0);
    if (from >= num_colors_) return -1;
    const std::size_t aw = words_needed(num_colors_);
    std::size_t w = word_of(from);
    std::uint64_t cur = ~words_[w] & ones_from(from & 63);
    while (true) {
      if (w + 1 == aw) cur &= tail_mask();  // clip past num_colors_
      if (cur != 0) return static_cast<int>(w * 64) + bits::ctz64(cur);
      if (++w >= aw) return -1;
      cur = ~words_[w];
    }
  }

  // ---- word-wise set algebra (operands must share the universe) ----

  void or_with(const ColorSet& o) {  // this |= o
    CCG_ASSERT(o.num_colors_ == num_colors_);
    const std::size_t aw = words_needed(num_colors_);
    for (std::size_t w = 0; w < aw; ++w) words_[w] |= o.words_[w];
  }
  void and_with(const ColorSet& o) {  // this &= o
    CCG_ASSERT(o.num_colors_ == num_colors_);
    const std::size_t aw = words_needed(num_colors_);
    for (std::size_t w = 0; w < aw; ++w) words_[w] &= o.words_[w];
  }
  void and_not(const ColorSet& o) {  // this &= ~o
    CCG_ASSERT(o.num_colors_ == num_colors_);
    const std::size_t aw = words_needed(num_colors_);
    for (std::size_t w = 0; w < aw; ++w) words_[w] &= ~o.words_[w];
  }
  // popcount(this & o) without materializing the intersection.
  int intersect_count(const ColorSet& o) const {
    CCG_ASSERT(o.num_colors_ == num_colors_);
    const std::size_t aw = words_needed(num_colors_);
    int s = 0;
    for (std::size_t w = 0; w < aw; ++w) {
      s += bits::popcount64(words_[w] & o.words_[w]);
    }
    return s;
  }

 private:
  static std::size_t words_needed(int num_colors) {
    return (static_cast<std::size_t>(num_colors) + 63) / 64;
  }
  static std::size_t word_of(int c) { return static_cast<std::size_t>(c) / 64; }
  static std::uint64_t bit_of(int c) {
    return std::uint64_t{1} << (static_cast<unsigned>(c) & 63u);
  }
  // All ones at bit positions >= b (b in [0, 63]).
  static std::uint64_t ones_from(int b) {
    return ~std::uint64_t{0} << static_cast<unsigned>(b);
  }
  // All ones at bit positions <= b (b in [0, 63]).
  static std::uint64_t ones_upto(int b) {
    return ~std::uint64_t{0} >> (63u - static_cast<unsigned>(b));
  }
  // Valid bits of the last active word.
  std::uint64_t tail_mask() const {
    return ones_upto((num_colors_ - 1) & 63);
  }

  std::uint64_t masked_word(std::size_t w, int lo, int hi,
                            bool complement) const {
    std::uint64_t cur = complement ? ~words_[w] : words_[w];
    if (w == word_of(lo)) cur &= ones_from(lo & 63);
    if (w == word_of(hi)) cur &= ones_upto(hi & 63);
    return cur;
  }

  int masked_count(int lo, int hi, bool complement) const {
    const std::size_t wl = word_of(lo), wh = word_of(hi);
    int s = 0;
    for (std::size_t w = wl; w <= wh; ++w) {
      s += bits::popcount64(masked_word(w, lo, hi, complement));
    }
    return s;
  }

  int masked_select(int lo, int hi, int i, bool complement) const {
    const std::size_t wl = word_of(lo), wh = word_of(hi);
    for (std::size_t w = wl; w <= wh; ++w) {
      std::uint64_t cur = masked_word(w, lo, hi, complement);
      const int pc = bits::popcount64(cur);
      if (i < pc) {
        while (i-- > 0) cur &= cur - 1;  // drop the i lowest members
        return static_cast<int>(w * 64) + bits::ctz64(cur);
      }
      i -= pc;
    }
    return -1;
  }

  int num_colors_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace ccg::color
