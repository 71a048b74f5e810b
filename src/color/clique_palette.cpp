#include "color/clique_palette.hpp"

namespace ccg::color {

CliquePalette::CliquePalette(int num_colors)
    : num_colors_(num_colors),
      mult_(static_cast<std::size_t>(num_colors), 0) {
  CCG_CHECK(num_colors >= 1);
  used_.rebind(num_colors);
}

void CliquePalette::add(int c) {
  CCG_CHECK(c >= 0 && c < num_colors_);
  if (mult_[static_cast<std::size_t>(c)]++ == 0) used_.add(c);
  ++colored_total_;
}

void CliquePalette::remove(int c) {
  CCG_CHECK(c >= 0 && c < num_colors_);
  CCG_CHECK(mult_[static_cast<std::size_t>(c)] > 0);
  if (--mult_[static_cast<std::size_t>(c)] == 0) used_.remove(c);
  --colored_total_;
}

int CliquePalette::used_distinct(int lo, int hi) const {
  CCG_CHECK(lo >= 0 && hi < num_colors_);
  return used_.count_in(lo, hi);
}

int CliquePalette::free_count(int lo, int hi) const {
  CCG_CHECK(lo >= 0 && hi < num_colors_);
  return used_.free_count_in(lo, hi);
}

int CliquePalette::select_free(int lo, int hi, int i) const {
  CCG_CHECK(i >= 0);
  CCG_CHECK(lo >= 0 && hi < num_colors_);
  return used_.select_free_in(lo, hi, i);
}

}  // namespace ccg::color
