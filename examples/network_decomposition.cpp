// Coloring the cluster graph of a network decomposition — the situation
// from the paper's introduction (network-decomposition algorithms
// [RG20, GGR21] produce exactly these contracted cluster graphs, Fig. 1).
//
// A flat network is partitioned into low-diameter clusters; the derived
// cluster graph H is colored so that same-colored clusters can run
// internal computations simultaneously without boundary interference.
#include <cstdio>
#include <vector>

#include "ccg/ccg.hpp"

int main() {
  using namespace ccg;
  Rng rng(11);

  // The physical network: a connected sparse random graph.
  graph::Graph g = [&] {
    for (;;) {
      auto cand = graph::gnm(4000, 14000, rng);
      if (cand.is_connected()) return cand;
    }
  }();
  std::printf("network: %d machines, %lld links\n", g.n(),
              static_cast<long long>(g.m()));

  // Decompose into ~200 low-diameter clusters (multi-source BFS growth)
  // and derive the cluster graph per Definition 3.1.
  const auto assignment = cluster::random_partition(g, 200, rng);
  const auto cg = cluster::ClusterGraph::from_partition(g, assignment);
  std::printf("decomposition: %d clusters, cluster-graph Delta = %d, "
              "dilation d = %d\n",
              cg.num_clusters(), cg.h().max_degree(), cg.dilation());

  // Color the cluster graph.
  Solver solver;
  Options opt;
  opt.seed = 5;
  const auto out = solver.solve(Problem::cluster(cg), opt);
  if (!out.ok()) {
    std::fprintf(stderr, "solve failed (%s): %s\n",
                 error_code_name(out.error.code), out.error.message.c_str());
    return 1;
  }
  const auto& result = out.result;
  cluster::check_proper_total(cg.h(), result.colors, result.num_colors);

  // Color classes = phases in which clusters may be simultaneously
  // active: no two adjacent clusters share a phase.
  std::vector<int> phase_size(static_cast<std::size_t>(result.num_colors),
                              0);
  for (const int c : result.colors) ++phase_size[static_cast<std::size_t>(c)];
  int phases_used = 0, largest = 0;
  for (const int s : phase_size) {
    if (s > 0) ++phases_used;
    largest = std::max(largest, s);
  }
  std::printf("schedule: %d phases (<= Delta+1 = %d), largest phase runs "
              "%d clusters in parallel\n",
              phases_used, result.num_colors, largest);
  std::printf("coloring cost: %lld H-rounds / %lld network rounds, max "
              "message %d bits\n",
              static_cast<long long>(result.h_rounds),
              static_cast<long long>(result.g_rounds),
              result.max_bits_per_link_round);
  return 0;
}
