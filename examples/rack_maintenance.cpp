// Rack-level maintenance scheduling — the Definition 3.1 direction.
//
// A datacenter network G of machines is partitioned into racks (each rack
// a connected cluster of machines); two racks conflict when any cable
// joins them, because taking both down simultaneously would partition
// traffic that fails over between them. Scheduling maintenance windows so
// that no two adjacent racks are serviced together is exactly
// (Delta+1)-coloring the *contracted* rack graph H — a cluster graph
// where the algorithm has to run on the machines themselves, through the
// racks' support trees. This is the "algorithms contract edges" situation
// the paper's introduction motivates (network decomposition, maximum
// flow): the conflict graph lives above the communication graph.
//
//   cmake --build build && ./build/rack_maintenance
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "ccg/ccg.hpp"

int main() {
  using namespace ccg;

  // The physical network: machines wired as a random graph with locality
  // (a supergraph of a grid, so racks grown by BFS stay compact).
  Rng rng(77);
  const int width = 60, height = 40;
  auto g = graph::grid(width, height);
  {
    // Add shortcut cables to make the fabric realistic.
    auto edges = g.edges();
    std::set<std::pair<int, int>> have(edges.begin(), edges.end());
    for (int i = 0; i < g.n() / 2; ++i) {
      int u = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(g.n())));
      int v = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(g.n())));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      have.insert({u, v});
    }
    graph::Graph dense(g.n());
    for (const auto& [u, v] : have) dense.add_edge(u, v);
    dense.finalize();
    g = std::move(dense);
  }
  std::printf("fabric: %d machines, %lld cables\n", g.n(),
              static_cast<long long>(g.m()));

  // Carve the fabric into racks: connected clusters via multi-source BFS.
  const int racks = 120;
  const auto assignment = cluster::random_partition(g, racks, rng);
  const auto cg =
      cluster::ClusterGraph::from_partition(std::move(g), assignment);
  std::printf("racks: %d clusters, rack graph Delta = %d, dilation d = %d\n",
              cg.num_clusters(), cg.h().max_degree(), cg.dilation());

  // Color the rack graph on the machine network.
  Solver solver;
  Options opt;
  opt.seed = 9;
  const auto out = solver.solve(Problem::cluster(cg), opt);
  if (!out.ok()) {
    std::fprintf(stderr, "solve failed (%s): %s\n",
                 error_code_name(out.error.code), out.error.message.c_str());
    return 1;
  }
  const auto& res = out.result;
  cluster::check_proper_total(cg.h(), res.colors, res.num_colors);

  std::printf("maintenance plan: %d windows, %lld H-rounds, %lld G-rounds, "
              "max %d bits/cable/round\n",
              res.num_colors, static_cast<long long>(res.h_rounds),
              static_cast<long long>(res.g_rounds),
              res.max_bits_per_link_round);

  // Window sizes: how many racks can be serviced in parallel.
  std::vector<int> per_window(static_cast<std::size_t>(res.num_colors), 0);
  for (const int c : res.colors) ++per_window[static_cast<std::size_t>(c)];
  int used = 0, widest = 0;
  for (const int k : per_window) {
    if (k > 0) ++used;
    widest = std::max(widest, k);
  }
  std::printf("windows actually used: %d (largest services %d racks "
              "in parallel)\n",
              used, widest);
  return 0;
}
