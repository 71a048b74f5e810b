// TDMA slot assignment for cluster-level broadcasts.
//
// In sensor deployments, machines are aggregated into clusters (gateways
// plus their trees); two clusters sharing any link interfere when they
// broadcast in the same slot. A (Delta+1)-coloring of the cluster graph is
// exactly a collision-free periodic schedule with Delta+1 slots — computed
// here *by* the clusters themselves over the same network.
#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "ccg/ccg.hpp"

int main() {
  using namespace ccg;
  Rng rng(77);

  // Deployment: machines scattered on a grid backbone with shortcut
  // links, decomposed into gateway clusters.
  graph::Graph field = [] {
    Rng r(3);
    auto g = graph::grid(30, 30);
    graph::Graph out(g.n());
    std::set<std::pair<int, int>> added;
    for (const auto& [u, v] : g.edges()) out.add_edge(u, v);
    for (int i = 0; i < 120; ++i) {
      const int u = static_cast<int>(r.next_below(g.n()));
      const int v = static_cast<int>(r.next_below(g.n()));
      const auto key = std::minmax(u, v);
      if (u != v && !g.has_edge(u, v) &&
          added.insert({key.first, key.second}).second) {
        out.add_edge(u, v);
      }
    }
    out.finalize();
    return out;
  }();
  const int num_gateways = 120;
  const auto assign = cluster::random_partition(field, num_gateways, rng);
  const auto cg = cluster::ClusterGraph::from_partition(field, assign);
  std::printf("deployment: %d sensors -> %d gateway clusters, cluster "
              "graph Delta = %d, dilation %d\n",
              cg.n_machines(), cg.num_clusters(), cg.h().max_degree(),
              cg.dilation());

  Solver solver;
  Options opt;
  opt.seed = 13;
  const auto out = solver.solve(Problem::cluster(cg), opt);
  if (!out.ok()) {
    std::fprintf(stderr, "solve failed (%s): %s\n",
                 error_code_name(out.error.code), out.error.message.c_str());
    return 1;
  }
  const auto& result = out.result;
  cluster::check_proper_total(cg.h(), result.colors, result.num_colors);

  // Slot utilization.
  std::vector<int> slot_load(static_cast<std::size_t>(result.num_colors),
                             0);
  for (const int c : result.colors) {
    ++slot_load[static_cast<std::size_t>(c)];
  }
  const int slots_used = result.num_colors -
                         static_cast<int>(std::count(slot_load.begin(),
                                                     slot_load.end(), 0));
  std::printf("schedule: %d slots (budget Delta+1 = %d); busiest slot "
              "carries %d clusters\n",
              slots_used, result.num_colors,
              *std::max_element(slot_load.begin(), slot_load.end()));

  // Verify collision-freedom once more at the machine level: two adjacent
  // clusters never share a slot.
  int collisions = 0;
  for (const auto& [mu, mv] : field.edges()) {
    const int cu = cg.cluster_of_machine(mu);
    const int cv = cg.cluster_of_machine(mv);
    if (cu != cv && result.colors[static_cast<std::size_t>(cu)] ==
                        result.colors[static_cast<std::size_t>(cv)]) {
      ++collisions;
    }
  }
  std::printf("boundary-link collisions: %d\n", collisions);
  std::printf("computed in %lld cluster rounds (%lld network rounds)\n",
              static_cast<long long>(result.h_rounds),
              static_cast<long long>(result.g_rounds));
  return collisions == 0 ? 0 : 1;
}
