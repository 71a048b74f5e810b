#include "cluster/cluster_graph.hpp"

#include <algorithm>
#include <queue>

#include "common/mathutil.hpp"

namespace ccg::cluster {

namespace {

// Fill depth/height/diameter of a cluster whose members/parent are set.
void finish_cluster(Cluster& c) {
  const int s = c.size();
  c.depth.assign(static_cast<std::size_t>(s), 0);
  c.height = 0;
  c.diameter = 0;
  if (s == 1) return;  // a lone leader: nothing to walk
  // parent[] is topologically usable only if parents precede children; all
  // our constructions satisfy parent_index < child_index except BFS trees,
  // which also do (BFS discovery order). Verify while computing depth.
  for (int i = 1; i < s; ++i) {
    const int p = c.parent[static_cast<std::size_t>(i)];
    CCG_CHECK(p >= 0 && p < i);
    c.depth[static_cast<std::size_t>(i)] =
        c.depth[static_cast<std::size_t>(p)] + 1;
  }
  for (const int d : c.depth) c.height = std::max(c.height, d);

  // Tree diameter via double BFS on the member-level tree.
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(s));
  for (int i = 1; i < s; ++i) {
    const int p = c.parent[static_cast<std::size_t>(i)];
    adj[static_cast<std::size_t>(i)].push_back(p);
    adj[static_cast<std::size_t>(p)].push_back(i);
  }
  const auto farthest = [&](int src) {
    std::vector<int> dist(static_cast<std::size_t>(s), -1);
    dist[static_cast<std::size_t>(src)] = 0;
    std::queue<int> q;
    q.push(src);
    int best = src;
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      if (dist[static_cast<std::size_t>(v)] >
          dist[static_cast<std::size_t>(best)]) {
        best = v;
      }
      for (const int u : adj[static_cast<std::size_t>(v)]) {
        if (dist[static_cast<std::size_t>(u)] == -1) {
          dist[static_cast<std::size_t>(u)] =
              dist[static_cast<std::size_t>(v)] + 1;
          q.push(u);
        }
      }
    }
    return std::pair<int, int>{best, dist[static_cast<std::size_t>(best)]};
  };
  const auto [far_node, unused] = farthest(0);
  (void)unused;
  c.diameter = farthest(far_node).second;
}

// H's edge slot of H-edge {u, v}; a non-edge has no links.
std::size_t link_slot(const graph::Graph& h, int u, int v) {
  const std::int64_t e = h.edge_slot(u, v);
  CCG_CHECK_MSG(e >= 0, "no links for H-edge " << u << "," << v);
  return static_cast<std::size_t>(e);
}

}  // namespace

int ClusterGraph::link_count(int u, int v) const {
  const std::size_t e = link_slot(h_, u, v);
  if (!machines_) return 1;
  return static_cast<int>(link_off_[e + 1] - link_off_[e]);
}

std::pair<int, int> ClusterGraph::link(int u, int v, int i) const {
  const std::size_t e = link_slot(h_, u, v);
  if (!machines_) {
    CCG_CHECK(i == 0);
    return {std::min(u, v), std::max(u, v)};
  }
  CCG_CHECK(i >= 0 && i < link_off_[e + 1] - link_off_[e]);
  return link_pairs_[static_cast<std::size_t>(link_off_[e] + i)];
}

std::size_t ClusterGraph::heap_bytes() const {
  std::size_t b = h_.heap_bytes() + graph::capacity_bytes(cluster_of_) +
                  graph::capacity_bytes(clusters_) +
                  graph::capacity_bytes(link_off_) +
                  graph::capacity_bytes(link_pairs_);
  for (const auto& c : clusters_) {
    b += graph::capacity_bytes(c.members) + graph::capacity_bytes(c.parent) +
         graph::capacity_bytes(c.depth);
  }
  if (machines_) b += machines_->heap_bytes();
  return b;
}

int ClusterGraph::default_bandwidth(int beta) const {
  return beta *
         std::max(1, ceil_log2(static_cast<std::uint64_t>(
                        std::max(2, n_machines()))));
}

ClusterGraph ClusterGraph::singleton(graph::Graph h) {
  h.finalize();
  ClusterGraph cg;
  cg.h_ = std::move(h);
  const int n = cg.h_.n();
  cg.cluster_of_.resize(static_cast<std::size_t>(n));
  cg.clusters_.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    cg.cluster_of_[static_cast<std::size_t>(v)] = v;
    auto& c = cg.clusters_[static_cast<std::size_t>(v)];
    c.members = {v};
    c.parent = {-1};
    finish_cluster(c);
  }
  cg.dilation_ = 0;
  cg.max_height_ = 0;
  return cg;
}

ClusterGraph ClusterGraph::expand(const graph::Graph& h,
                                  const ExpandSpec& spec, Rng& rng) {
  CCG_CHECK(spec.size >= 1 && spec.links_per_edge >= 1);
  const int size =
      spec.shape == ClusterShape::kSingleton ? 1 : spec.size;
  const int n_h = h.n();
  ClusterGraph cg;
  cg.h_ = h;
  cg.h_.finalize();
  graph::Graph machines(n_h * size);
  cg.cluster_of_.resize(static_cast<std::size_t>(n_h) *
                        static_cast<std::size_t>(size));
  cg.clusters_.resize(static_cast<std::size_t>(n_h));

  for (int v = 0; v < n_h; ++v) {
    auto& c = cg.clusters_[static_cast<std::size_t>(v)];
    c.members.resize(static_cast<std::size_t>(size));
    c.parent.assign(static_cast<std::size_t>(size), -1);
    for (int i = 0; i < size; ++i) {
      const int m = v * size + i;
      c.members[static_cast<std::size_t>(i)] = m;
      cg.cluster_of_[static_cast<std::size_t>(m)] = v;
    }
    for (int i = 1; i < size; ++i) {
      int p = 0;
      switch (spec.shape) {
        case ClusterShape::kSingleton:
          p = -1;
          break;
        case ClusterShape::kStar:
          p = 0;
          break;
        case ClusterShape::kPath:
        case ClusterShape::kBridgePath:
          p = i - 1;
          break;
        case ClusterShape::kRandomTree:
          p = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(i)));
          break;
        case ClusterShape::kBalancedBinary:
          p = (i - 1) / 2;
          break;
      }
      c.parent[static_cast<std::size_t>(i)] = p;
      machines.add_edge(c.members[static_cast<std::size_t>(i)],
                        c.members[static_cast<std::size_t>(p)]);
    }
    finish_cluster(c);
  }

  // Attach point inside cluster `v` for an H-edge toward `other`.
  const auto attach = [&](int v, int other) -> int {
    const auto& c = cg.clusters_[static_cast<std::size_t>(v)];
    switch (spec.shape) {
      case ClusterShape::kSingleton:
        return c.members[0];
      case ClusterShape::kStar:
        if (size == 1) return c.members[0];
        return c.members[1 + static_cast<std::size_t>(rng.next_below(
                                 static_cast<std::uint64_t>(size - 1)))];
      case ClusterShape::kBridgePath:
        // All links at the two path ends, split by neighbor parity: the
        // Fig. 2/3 shape where information about half the neighbors must
        // cross the single central link.
        return (other % 2 == 0) ? c.members.front() : c.members.back();
      default:
        return c.members[static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(size)))];
    }
  };

  // Slot by slot, in H's edge order: draw the edge's links at the tail of
  // link_pairs_, then sort them and drop repeats there. The array is
  // reserved for links_per_edge pairs per slot, so it never reallocates.
  auto& pairs = cg.link_pairs_;
  cg.link_off_.assign(static_cast<std::size_t>(cg.h_.m()) + 1, 0);
  pairs.reserve(static_cast<std::size_t>(cg.h_.m()) *
                static_cast<std::size_t>(spec.links_per_edge));
  std::size_t e = 0;
  for (int u = 0; u < n_h; ++u) {
    for (const int v : cg.h_.upper_neighbors(u)) {
      const auto first = static_cast<std::ptrdiff_t>(pairs.size());
      for (int i = 0; i < spec.links_per_edge; ++i) {
        const int mu = attach(u, v);
        const int mv = attach(v, u);
        pairs.emplace_back(mu, mv);
      }
      std::sort(pairs.begin() + first, pairs.end());
      pairs.erase(std::unique(pairs.begin() + first, pairs.end()),
                  pairs.end());
      for (auto it = pairs.begin() + first; it != pairs.end(); ++it) {
        machines.add_edge(it->first, it->second);
      }
      cg.link_off_[++e] = static_cast<std::int64_t>(pairs.size());
    }
  }
  pairs.shrink_to_fit();
  machines.finalize();
  cg.machines_ = std::move(machines);
  for (const auto& c : cg.clusters_) {
    cg.dilation_ = std::max(cg.dilation_, c.diameter);
    cg.max_height_ = std::max(cg.max_height_, c.height);
  }
  return cg;
}

ClusterGraph ClusterGraph::from_partition(graph::Graph g,
                                          std::vector<int> cluster_of) {
  g.finalize();
  CCG_CHECK(static_cast<int>(cluster_of.size()) == g.n());
  int k = 0;
  for (const int c : cluster_of) {
    CCG_CHECK(c >= 0);
    k = std::max(k, c + 1);
  }
  ClusterGraph cg;
  cg.cluster_of_ = std::move(cluster_of);
  cg.clusters_.resize(static_cast<std::size_t>(k));
  for (int m = 0; m < g.n(); ++m) {
    cg.clusters_[static_cast<std::size_t>(cg.cluster_of_[
                     static_cast<std::size_t>(m)])]
        .members.push_back(m);
  }

  // Support trees: BFS from the leader (minimum-id member) restricted to
  // intra-cluster edges; members are reordered into BFS discovery order so
  // parents precede children.
  std::vector<int> member_index(static_cast<std::size_t>(g.n()), -1);
  for (int c = 0; c < k; ++c) {
    auto& cl = cg.clusters_[static_cast<std::size_t>(c)];
    CCG_CHECK_MSG(!cl.members.empty(), "empty cluster " << c);
    std::sort(cl.members.begin(), cl.members.end());
    const int leader = cl.members.front();
    std::vector<int> order;
    std::vector<int> parent_of;  // aligned with order
    order.reserve(cl.members.size());
    std::queue<int> q;
    q.push(leader);
    member_index[static_cast<std::size_t>(leader)] = 0;
    order.push_back(leader);
    parent_of.push_back(-1);
    while (!q.empty()) {
      const int m = q.front();
      q.pop();
      for (const int u : g.neighbors(m)) {
        if (cg.cluster_of_[static_cast<std::size_t>(u)] != c) continue;
        if (member_index[static_cast<std::size_t>(u)] != -1) continue;
        member_index[static_cast<std::size_t>(u)] =
            static_cast<int>(order.size());
        order.push_back(u);
        parent_of.push_back(member_index[static_cast<std::size_t>(m)]);
        q.push(u);
      }
    }
    CCG_CHECK_MSG(order.size() == cl.members.size(),
                  "cluster " << c << " is not connected in G");
    cl.members = std::move(order);
    cl.parent = std::move(parent_of);
    finish_cluster(cl);
  }

  // H: the distinct cluster pairs of the inter-cluster G-edges. Links: a
  // count pass and a fill pass over the same G-edges, each into its H-edge
  // slot, so a slot lists its links in G's edges() order.
  const auto for_inter_edges = [&](auto&& fn) {
    for (int mu = 0; mu < g.n(); ++mu) {
      const int cu = cg.cluster_of_[static_cast<std::size_t>(mu)];
      for (const int mv : g.upper_neighbors(mu)) {
        const int cv = cg.cluster_of_[static_cast<std::size_t>(mv)];
        if (cu != cv) fn(mu, mv, cu, cv);
      }
    }
  };
  std::vector<std::pair<int, int>> h_edges;
  for_inter_edges([&](int, int, int cu, int cv) {
    h_edges.emplace_back(std::min(cu, cv), std::max(cu, cv));
  });
  std::sort(h_edges.begin(), h_edges.end());
  h_edges.erase(std::unique(h_edges.begin(), h_edges.end()), h_edges.end());
  cg.h_ = graph::Graph::from_edges(k, h_edges);
  const auto slot = [&cg](int cu, int cv) {
    return static_cast<std::size_t>(cg.h_.edge_slot(cu, cv));
  };
  const auto m = static_cast<std::size_t>(cg.h_.m());
  cg.link_off_.assign(m + 1, 0);
  for_inter_edges([&](int, int, int cu, int cv) {
    ++cg.link_off_[slot(cu, cv) + 1];
  });
  for (std::size_t e = 0; e < m; ++e) cg.link_off_[e + 1] += cg.link_off_[e];
  cg.link_pairs_.resize(static_cast<std::size_t>(cg.link_off_[m]));
  std::vector<std::int64_t> cursor(cg.link_off_.begin(),
                                   cg.link_off_.end() - 1);
  for_inter_edges([&](int mu, int mv, int cu, int cv) {
    // Normalized convention: pair.first lives in the lower-id cluster.
    cg.link_pairs_[static_cast<std::size_t>(cursor[slot(cu, cv)]++)] =
        cu < cv ? std::pair{mu, mv} : std::pair{mv, mu};
  });
  cg.machines_ = std::move(g);
  for (const auto& c : cg.clusters_) {
    cg.dilation_ = std::max(cg.dilation_, c.diameter);
    cg.max_height_ = std::max(cg.max_height_, c.height);
  }
  return cg;
}

std::vector<int> random_partition(const graph::Graph& g, int k, Rng& rng) {
  CCG_CHECK(k >= 1 && k <= g.n());
  CCG_CHECK_MSG(g.is_connected(), "random_partition needs a connected G");
  std::vector<int> assign(static_cast<std::size_t>(g.n()), -1);
  const auto seeds_perm = rng.permutation(g.n());
  std::queue<int> q;
  for (int i = 0; i < k; ++i) {
    const int s = seeds_perm[static_cast<std::size_t>(i)];
    assign[static_cast<std::size_t>(s)] = i;
    q.push(s);
  }
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    for (const int u : g.neighbors(v)) {
      if (assign[static_cast<std::size_t>(u)] == -1) {
        assign[static_cast<std::size_t>(u)] =
            assign[static_cast<std::size_t>(v)];
        q.push(u);
      }
    }
  }
  return assign;
}

}  // namespace ccg::cluster
