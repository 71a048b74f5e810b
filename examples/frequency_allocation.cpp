// Frequency allocation in a wireless mesh (Corollary 1.3 scenario).
//
// Two transmitters interfere when they are within two hops of each other,
// so channels must form a *distance-2* coloring of the mesh. The paper's
// reduction: color H = G^2 as a cluster graph whose clusters are the
// 1-hop balls — exactly the virtual-graph view of Appendix A.2, with
// Delta_2 + 1 channels.
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "ccg/ccg.hpp"

int main() {
  using namespace ccg;
  Rng rng(2025);

  // A mesh: grid with random long-range shortcuts.
  auto mesh = [] {
    Rng r(9);
    graph::Graph g = graph::grid(24, 24);
    graph::Graph out(g.n());
    std::set<std::pair<int, int>> added;
    for (const auto& [u, v] : g.edges()) out.add_edge(u, v);
    for (int i = 0; i < 60; ++i) {
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
  std::printf("mesh: %d nodes, %lld links, Delta = %d\n", mesh.n(),
              static_cast<long long>(mesh.m()), mesh.max_degree());

  // Interference graph = mesh^2.
  const auto interference = graph::graph_power(mesh, 2);
  std::printf("interference graph: Delta_2 = %d -> %d channels available\n",
              interference.max_degree(), interference.max_degree() + 1);

  // Clusters model the 1-hop balls (constant dilation).
  cluster::ExpandSpec layout;
  layout.shape = cluster::ClusterShape::kStar;
  layout.size = 3;
  const auto cg = cluster::ClusterGraph::expand(interference, layout, rng);
  Solver solver;
  Options opt;
  opt.seed = 3;
  const auto out = solver.solve(Problem::cluster(cg), opt);
  if (!out.ok()) {
    std::fprintf(stderr, "solve failed (%s): %s\n",
                 error_code_name(out.error.code), out.error.message.c_str());
    return 1;
  }
  const auto& result = out.result;
  cluster::check_proper_total(interference, result.colors,
                              result.num_colors);

  // Verify the radio constraint directly on the mesh.
  int violations = 0;
  for (int v = 0; v < mesh.n(); ++v) {
    for (const int u : mesh.neighbors(v)) {
      if (result.colors[static_cast<std::size_t>(u)] ==
          result.colors[static_cast<std::size_t>(v)]) {
        ++violations;
      }
      for (const int w : mesh.neighbors(u)) {
        if (w != v && result.colors[static_cast<std::size_t>(w)] ==
                          result.colors[static_cast<std::size_t>(v)]) {
          ++violations;
        }
      }
    }
  }
  std::printf("2-hop interference violations: %d\n", violations);
  std::printf("allocated in %lld H-rounds (%lld network rounds)\n",
              static_cast<long long>(result.h_rounds),
              static_cast<long long>(result.g_rounds));

  // Channel usage histogram (top of it).
  std::vector<int> usage(static_cast<std::size_t>(result.num_colors), 0);
  for (const int c : result.colors) ++usage[static_cast<std::size_t>(c)];
  int used = 0;
  for (const int u : usage) {
    if (u > 0) ++used;
  }
  std::printf("channels actually used: %d of %d\n", used,
              result.num_colors);
  return violations == 0 ? 0 : 1;
}
