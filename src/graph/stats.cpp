#include "graph/stats.hpp"

#include <algorithm>

namespace ccg::graph {

int common_neighbors(const Graph& g, int u, int v) {
  const auto a = g.neighbors(u);
  const auto b = g.neighbors(v);
  int count = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

double sparsity(const Graph& g, int v, int delta) {
  CCG_CHECK(delta >= 1);
  double sum = 0;
  for (const int u : g.neighbors(v)) sum += common_neighbors(g, u, v);
  const double pairs = static_cast<double>(delta) * (delta - 1) / 2.0;
  return (pairs - sum / 2.0) / static_cast<double>(delta);
}

DenseDegrees dense_degrees(const Graph& g, const std::vector<int>& clique_of) {
  const auto n = static_cast<std::size_t>(g.n());
  CCG_CHECK(clique_of.size() == n);
  DenseDegrees dd;
  dd.external.assign(n, 0);
  dd.anti.assign(n, 0);

  // Clique sizes for anti-degree computation.
  int num_cliques = 0;
  for (const int c : clique_of) num_cliques = std::max(num_cliques, c + 1);
  std::vector<int> size(static_cast<std::size_t>(num_cliques), 0);
  for (const int c : clique_of) {
    if (c >= 0) ++size[static_cast<std::size_t>(c)];
  }

  for (int v = 0; v < g.n(); ++v) {
    const int kv = clique_of[static_cast<std::size_t>(v)];
    if (kv < 0) continue;
    int internal = 0;
    for (const int u : g.neighbors(v)) {
      if (clique_of[static_cast<std::size_t>(u)] == kv) {
        ++internal;
      } else {
        ++dd.external[static_cast<std::size_t>(v)];
      }
    }
    dd.anti[static_cast<std::size_t>(v)] =
        size[static_cast<std::size_t>(kv)] - 1 - internal;
  }
  return dd;
}

}  // namespace ccg::graph
