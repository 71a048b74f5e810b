// E16 — Corollary 1.3: distance-2 coloring with Delta_2 + 1 colors via
// the *virtual graph* encoding of Appendix A.2: supports are the closed
// 1-hop balls (overlapping!), H = G^2, and both congestion and dilation
// equal 2. The measured G-rounds pay the congestion factor explicitly.
#include "util.hpp"

using namespace ccg;

int main() {
  bench::header("E16 / Corollary 1.3: distance-2 coloring (virtual graph)",
                "Delta_2 + 1 colors; c = d = 2 for this encoding; rounds "
                "polyloglog (O(log* n) once Delta_2 is large)");
  bench::row({"base", "n", "Delta", "Delta_2", "c", "d", "H-rounds",
              "G-rounds(c)", "colors-used"});
  struct Base {
    const char* name;
    graph::Graph g;
  };
  Rng rng(271);
  std::vector<Base> bases;
  bases.push_back({"grid40x40", graph::grid(40, 40)});
  bases.push_back({"gnm", graph::gnm(1500, 9000, rng)});
  bases.push_back({"tree", graph::random_tree(1500, rng)});
  for (auto& base : bases) {
    const auto vg = cluster::VirtualGraph::distance_k(base.g, 2);
    const auto out = bench::solve(Problem::virtual_graph(vg), Algo::kAuto,
                                  bench::bench_params(vg.h().n(), 19));
    const auto& res = out.result;
    // Distance-2 validation against the base graph.
    for (int v = 0; v < base.g.n(); ++v) {
      for (const int u : base.g.neighbors(v)) {
        CCG_CHECK(res.colors[static_cast<std::size_t>(u)] !=
                  res.colors[static_cast<std::size_t>(v)]);
        for (const int w : base.g.neighbors(u)) {
          CCG_CHECK(w == v || res.colors[static_cast<std::size_t>(w)] !=
                                  res.colors[static_cast<std::size_t>(v)]);
        }
      }
    }
    int used = 0;
    std::vector<char> seen(static_cast<std::size_t>(res.num_colors), 0);
    for (const int c : res.colors) {
      if (!seen[static_cast<std::size_t>(c)]) {
        seen[static_cast<std::size_t>(c)] = 1;
        ++used;
      }
    }
    bench::row({base.name, bench::fmt(base.g.n()),
                bench::fmt(base.g.max_degree()),
                bench::fmt(vg.h().max_degree()),
                bench::fmt(out.congestion), bench::fmt(vg.dilation()),
                bench::fmt(res.h_rounds),
                bench::fmt(out.g_rounds_with_congestion),
                bench::fmt(used)});
  }
  return 0;
}
