#include "cluster/virtual_graph.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <unordered_map>

#include "common/mathutil.hpp"
#include "graph/generators.hpp"

namespace ccg::cluster {

VirtualGraph VirtualGraph::from_supports(
    const graph::Graph& g, std::vector<std::vector<int>> supports,
    std::vector<int> roots) {
  return build(g, nullptr, std::move(supports), std::move(roots));
}

VirtualGraph VirtualGraph::from_supports_with_h(
    const graph::Graph& g, const graph::Graph& h,
    std::vector<std::vector<int>> supports, std::vector<int> roots) {
  CCG_CHECK(h.n() == static_cast<int>(supports.size()));
  return build(g, &h, std::move(supports), std::move(roots));
}

VirtualGraph VirtualGraph::build(const graph::Graph& g,
                                 const graph::Graph* h_filter,
                                 std::vector<std::vector<int>> supports,
                                 std::vector<int> roots) {
  const int n_h = static_cast<int>(supports.size());
  CCG_CHECK(n_h >= 1);
  CCG_CHECK(roots.empty() || static_cast<int>(roots.size()) == n_h);
  VirtualGraph vg;
  vg.base_ = g;
  vg.base_.finalize();

  // Copy machines: one per (support, member) incidence.
  std::vector<std::vector<int>> copy_id(static_cast<std::size_t>(n_h));
  int n_copies = 0;
  for (int v = 0; v < n_h; ++v) {
    auto& support = supports[static_cast<std::size_t>(v)];
    CCG_CHECK_MSG(!support.empty(), "empty support for vertex " << v);
    std::sort(support.begin(), support.end());
    CCG_CHECK(std::adjacent_find(support.begin(), support.end()) ==
              support.end());
    copy_id[static_cast<std::size_t>(v)].resize(support.size());
    for (std::size_t i = 0; i < support.size(); ++i) {
      copy_id[static_cast<std::size_t>(v)][i] = n_copies++;
    }
  }

  graph::Graph copies(n_copies);
  std::vector<int> cluster_of(static_cast<std::size_t>(n_copies));
  // Congestion counter per base edge (key: lo * n + hi).
  std::map<std::int64_t, int> edge_use;
  const auto base_key = [&g](int a, int b) {
    const auto [lo, hi] = std::minmax(a, b);
    return static_cast<std::int64_t>(lo) * g.n() + hi;
  };

  // Support trees: BFS within g[support]; copy edges mirror tree edges.
  for (int v = 0; v < n_h; ++v) {
    const auto& support = supports[static_cast<std::size_t>(v)];
    std::unordered_map<int, int> index;  // base machine -> support index
    for (std::size_t i = 0; i < support.size(); ++i) {
      index[support[i]] = static_cast<int>(i);
      cluster_of[static_cast<std::size_t>(
          copy_id[static_cast<std::size_t>(v)][i])] = v;
    }
    int root_idx = 0;
    if (!roots.empty()) {
      const auto it = index.find(roots[static_cast<std::size_t>(v)]);
      CCG_CHECK_MSG(it != index.end(), "root not in support of " << v);
      root_idx = it->second;
    }
    std::vector<char> visited(support.size(), 0);
    std::queue<int> q;
    q.push(root_idx);
    visited[static_cast<std::size_t>(root_idx)] = 1;
    int reached = 1;
    while (!q.empty()) {
      const int i = q.front();
      q.pop();
      const int base = support[static_cast<std::size_t>(i)];
      for (const int u : g.neighbors(base)) {
        const auto it = index.find(u);
        if (it == index.end() || visited[static_cast<std::size_t>(
                                     it->second)]) {
          continue;
        }
        visited[static_cast<std::size_t>(it->second)] = 1;
        ++reached;
        q.push(it->second);
        copies.add_edge(
            copy_id[static_cast<std::size_t>(v)][static_cast<std::size_t>(i)],
            copy_id[static_cast<std::size_t>(v)][static_cast<std::size_t>(
                it->second)]);
        ++edge_use[base_key(base, u)];
      }
    }
    CCG_CHECK_MSG(reached == static_cast<int>(support.size()),
                  "support of vertex " << v << " not connected in G");
  }

  // H-edges through shared machines: one link per overlapping pair.
  std::map<std::int64_t, std::pair<int, int>> h_links;  // (u,v) -> copies
  {
    // machine -> (vertex, support index) incidences
    std::vector<std::vector<std::pair<int, int>>> at_machine(
        static_cast<std::size_t>(g.n()));
    for (int v = 0; v < n_h; ++v) {
      const auto& support = supports[static_cast<std::size_t>(v)];
      for (std::size_t i = 0; i < support.size(); ++i) {
        at_machine[static_cast<std::size_t>(support[i])].emplace_back(
            v, static_cast<int>(i));
      }
    }
    for (int m = 0; m < g.n(); ++m) {
      const auto& inc = at_machine[static_cast<std::size_t>(m)];
      for (std::size_t a = 0; a < inc.size(); ++a) {
        for (std::size_t b = a + 1; b < inc.size(); ++b) {
          const auto [u, iu] = inc[a];
          const auto [v, iv] = inc[b];
          if (h_filter != nullptr) {
            // Keep only overlap pairs that are edges of the requested H.
            const auto& nb = h_filter->neighbors(u);
            if (!std::binary_search(nb.begin(), nb.end(), v)) continue;
          }
          const auto [lo, hi] = std::minmax(u, v);
          const std::int64_t key =
              static_cast<std::int64_t>(lo) * n_h + hi;
          if (!h_links.count(key)) {
            h_links[key] = {
                copy_id[static_cast<std::size_t>(u)][static_cast<std::size_t>(
                    iu)],
                copy_id[static_cast<std::size_t>(v)][static_cast<std::size_t>(
                    iv)]};
          }
        }
      }
    }
  }
  if (h_filter != nullptr) {
    CCG_CHECK_MSG(static_cast<std::int64_t>(h_links.size()) ==
                      static_cast<std::int64_t>(h_filter->edges().size()),
                  "some H-edge has non-overlapping supports");
  }
  for (const auto& [key, link] : h_links) {
    copies.add_edge(link.first, link.second);
  }
  copies.finalize();

  vg.representation_ = ClusterGraph::from_partition(std::move(copies),
                                                    std::move(cluster_of));
  vg.congestion_ = 1;
  for (const auto& [key, uses] : edge_use) {
    vg.congestion_ = std::max(vg.congestion_, uses);
  }
  return vg;
}

VirtualGraph VirtualGraph::distance2(const graph::Graph& g) {
  std::vector<std::vector<int>> supports(static_cast<std::size_t>(g.n()));
  std::vector<int> roots(static_cast<std::size_t>(g.n()));
  for (int v = 0; v < g.n(); ++v) {
    auto& s = supports[static_cast<std::size_t>(v)];
    const auto nb = g.neighbors(v);
    s.assign(nb.begin(), nb.end());
    s.push_back(v);
    roots[static_cast<std::size_t>(v)] = v;  // star center -> c = 2
  }
  return from_supports(g, std::move(supports), std::move(roots));
}

VirtualGraph VirtualGraph::distance_k(const graph::Graph& g, int k) {
  CCG_CHECK(k >= 1);
  const int radius = (k + 1) / 2;
  std::vector<std::vector<int>> supports(static_cast<std::size_t>(g.n()));
  std::vector<int> roots(static_cast<std::size_t>(g.n()));
  // Balls of radius ceil(k/2) by truncated BFS.
  for (int v = 0; v < g.n(); ++v) {
    std::vector<int> dist(static_cast<std::size_t>(g.n()), -1);
    std::queue<int> q;
    q.push(v);
    dist[static_cast<std::size_t>(v)] = 0;
    auto& s = supports[static_cast<std::size_t>(v)];
    s.push_back(v);
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      if (dist[static_cast<std::size_t>(u)] == radius) continue;
      for (const int w : g.neighbors(u)) {
        if (dist[static_cast<std::size_t>(w)] >= 0) continue;
        dist[static_cast<std::size_t>(w)] =
            dist[static_cast<std::size_t>(u)] + 1;
        s.push_back(w);
        q.push(w);
      }
    }
    roots[static_cast<std::size_t>(v)] = v;
  }
  const auto h = graph::graph_power(g, k);
  return from_supports_with_h(g, h, std::move(supports), std::move(roots));
}

VirtualGraph make_line_graph(const graph::Graph& g) {
  const auto edges = g.edges();
  std::vector<std::vector<int>> supports;
  supports.reserve(edges.size());
  std::vector<int> roots;
  for (const auto& [u, v] : edges) {
    supports.push_back({u, v});
    roots.push_back(u);
  }
  return VirtualGraph::from_supports(g, std::move(supports),
                                     std::move(roots));
}

int VirtualGraph::default_bandwidth(int beta) const {
  return beta * std::max(1, ceil_log2(static_cast<std::uint64_t>(
                                std::max(2, base_.n()))));
}

std::size_t VirtualGraph::heap_bytes() const {
  return base_.heap_bytes() + representation_.heap_bytes();
}

}  // namespace ccg::cluster
