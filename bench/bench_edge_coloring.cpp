// E21 — Appendix A.2: edge coloring and distance-k coloring as virtual
// graphs.
//
// Paper: "everything in this paper immediately translates to virtual
// graphs, with the additional overhead factor of the edge congestion."
// The line-graph encoding has congestion = dilation = 1; distance-k uses
// radius-ceil(k/2) ball supports whose measured congestion grows with the
// ball overlap. The bench reports colors vs. the combinatorial bound and
// the congestion-adjusted G-rounds.
#include "util.hpp"
#include "cluster/virtual_graph.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace ccg;
  bench::header("E21 — virtual graphs: edge coloring & distance-k",
                "transfer with multiplicative edge-congestion overhead; "
                "line graph: c = d = 1; distance-2: c = d = 2");

  std::printf("\nedge coloring (line graph), 2*Delta-1 slot guarantee:\n");
  bench::row({"radios", "links", "Delta_g", "slots", "2D-1", "c", "d",
              "H-rounds"});
  for (const int n : {100, 220, 460}) {
    Rng rng(5 + n);
    const auto g = graph::gnm(n, n * 3, rng);
    const auto vg = cluster::make_line_graph(g);
    const auto res =
        bench::solve(Problem::virtual_graph(vg), Algo::kAuto,
                     color::Params::defaults_for(vg.h().n(), 11))
            .result;
    bench::row({bench::fmt(n), bench::fmt(vg.h().n()),
                bench::fmt(g.max_degree()), bench::fmt(res.num_colors),
                bench::fmt(2 * g.max_degree() - 1),
                bench::fmt(vg.congestion()),
                bench::fmt(vg.dilation()),
                bench::fmt(res.h_rounds)});
  }

  std::printf("\ndistance-k coloring on a grid (Delta_k + 1 colors):\n");
  bench::row({"k", "n", "Delta_k", "colors", "c", "d", "H-rounds",
              "G-rounds*c"});
  const auto g = graph::grid(14, 14);
  for (const int k : {1, 2, 3, 4}) {
    const auto vg = cluster::VirtualGraph::distance_k(g, k);
    const auto out =
        bench::solve(Problem::virtual_graph(vg), Algo::kAuto,
                     color::Params::defaults_for(vg.h().n(), 13 + k));
    bench::row({bench::fmt(k), bench::fmt(vg.h().n()),
                bench::fmt(vg.h().max_degree()),
                bench::fmt(out.result.num_colors),
                bench::fmt(vg.congestion()), bench::fmt(vg.dilation()),
                bench::fmt(out.result.h_rounds),
                bench::fmt(out.g_rounds_with_congestion)});
  }
  return 0;
}
