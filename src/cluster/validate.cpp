#include "cluster/validate.hpp"

#include <algorithm>
#include <cstdint>

#include "common/assert.hpp"
#include "exec/parallel_round.hpp"

namespace ccg::cluster {

namespace {

// True iff no row v in [b, e) holds a colored v with an upper neighbor of
// the same color and, when `total`, every color in the rows lies in
// [0, num_colors). Reading only the upper neighbors checks each edge once.
bool rows_proper(const graph::Graph& h, const std::vector<int>& color,
                 bool total, int num_colors, std::int64_t b,
                 std::int64_t e) {
  for (auto v = static_cast<int>(b); v < e; ++v) {
    const int cv = color[static_cast<std::size_t>(v)];
    if (total && (cv < 0 || cv >= num_colors)) return false;
    if (cv == kUncolored) continue;
    for (const int u : h.upper_neighbors(v)) {
      if (color[static_cast<std::size_t>(u)] == cv) return false;
    }
  }
  return true;
}

bool is_proper(const graph::Graph& h, const std::vector<int>& color,
               bool total, int num_colors, exec::ParallelRound* par) {
  CCG_CHECK(static_cast<int>(color.size()) == h.n());
  if (par == nullptr) {
    return rows_proper(h, color, total, num_colors, 0, h.n());
  }
  par->reset_acc(0);  // 1 = the shard found a conflict
  par->shards(h.n(), [&](int w, std::int64_t b, std::int64_t e) {
    if (!rows_proper(h, color, total, num_colors, b, e)) par->acc(w) = 1;
  });
  return par->acc_max() == 0;
}

}  // namespace

bool is_proper_partial(const graph::Graph& h, const std::vector<int>& color,
                       exec::ParallelRound* par) {
  return is_proper(h, color, false, 0, par);
}

bool is_proper_total(const graph::Graph& h, const std::vector<int>& color,
                     int num_colors, exec::ParallelRound* par) {
  return is_proper(h, color, true, num_colors, par);
}

void check_proper_partial(const graph::Graph& h,
                          const std::vector<int>& color,
                          exec::ParallelRound* par) {
  CCG_CHECK_MSG(is_proper_partial(h, color, par), "coloring is not proper");
}

void check_proper_total(const graph::Graph& h, const std::vector<int>& color,
                        int num_colors, exec::ParallelRound* par) {
  if (is_proper_total(h, color, num_colors, par)) return;
  for (int v = 0; v < h.n(); ++v) {
    CCG_CHECK_MSG(color[static_cast<std::size_t>(v)] != kUncolored,
                  "vertex " << v << " left uncolored");
    CCG_CHECK_MSG(color[static_cast<std::size_t>(v)] >= 0 &&
                      color[static_cast<std::size_t>(v)] < num_colors,
                  "vertex " << v << " color out of range");
  }
  CCG_CHECK_MSG(false, "coloring is not proper");
}

int count_uncolored(const std::vector<int>& color) {
  return static_cast<int>(
      std::count(color.begin(), color.end(), kUncolored));
}

}  // namespace ccg::cluster
