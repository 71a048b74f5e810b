// Quickstart: build a conflict graph, wrap it as a cluster graph over a
// communication network, and (Delta+1)-color it with the paper's pipeline.
//
//   cmake --build build && ./build/quickstart
#include <cstdio>

#include "ccg/ccg.hpp"

int main() {
  using namespace ccg;

  // 1. The graph to color, H: three dense blocks + a sparse background.
  //    (Any graph::Graph works; make_planted_acd is just a convenient
  //    structured generator.)
  Rng rng(42);
  graph::PlantedSpec spec;
  spec.delta = 128;        // target maximum degree
  spec.num_cliques = 3;    // dense almost-cliques
  spec.anti_deg = 2;       // missing edges per block vertex
  spec.external_deg = 10;  // edges leaving each block vertex
  spec.num_sparse = 200;
  spec.sparse_avg_deg = 30.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto& h = planted.g;
  std::printf("H: %d vertices, %lld edges, Delta = %d\n", h.n(),
              static_cast<long long>(h.m()), h.max_degree());

  // 2. The communication network G: every H-vertex becomes a cluster of 4
  //    machines shaped as a random tree; every H-edge gets 2 links.
  cluster::ExpandSpec layout;
  layout.shape = cluster::ClusterShape::kRandomTree;
  layout.size = 4;
  layout.links_per_edge = 2;
  const auto cg = cluster::ClusterGraph::expand(h, layout, rng);
  std::printf("G: %d machines, dilation d = %d, bandwidth B = %d bits\n",
              cg.n_machines(), cg.dilation(), cg.default_bandwidth());

  // 3. Color through a Solver session. Algo::kAuto (the default) picks
  //    the Theorem 1.2 (high-degree) or Theorem 1.1 (low-degree) pipeline
  //    by Delta; the seed fixes every random choice.
  Solver solver;
  Options opt;
  opt.seed = 7;
  const auto out = solver.solve(Problem::cluster(cg), opt);
  if (!out.ok()) {
    std::fprintf(stderr, "solve failed (%s): %s\n",
                 error_code_name(out.error.code), out.error.message.c_str());
    return 1;
  }
  const auto& result = out.result;

  // 4. Inspect.
  cluster::check_proper_total(h, result.colors, result.num_colors);
  std::printf("proper (Delta+1)-coloring with %d colors\n",
              result.num_colors);
  std::printf("cost: %lld H-rounds, %lld G-rounds, max %d bits/link/round\n",
              static_cast<long long>(result.h_rounds),
              static_cast<long long>(result.g_rounds),
              result.max_bits_per_link_round);
  std::printf("structure: %d almost-cliques (%d cabals), %d sparse "
              "vertices\n",
              result.num_cliques, result.num_cabals, result.sparse_count);
  std::printf("phase breakdown:\n%s", solver.ledger().report().c_str());
  return 0;
}
