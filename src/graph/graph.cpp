#include "graph/graph.hpp"

#include <algorithm>
#include <queue>

namespace ccg::graph {

Graph Graph::from_edges(int n, const std::vector<std::pair<int, int>>& edges) {
  Graph g(n);
  g.pending_.reserve(edges.size());
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  g.finalize();
  return g;
}

void Graph::add_edge(int u, int v) {
  CCG_CHECK(!finalized_);
  CCG_CHECK(u >= 0 && u < n() && v >= 0 && v < n());
  CCG_CHECK_MSG(u != v, "self-loop");
  pending_.emplace_back(static_cast<std::int32_t>(u),
                        static_cast<std::int32_t>(v));
  ++m_;
}

void Graph::finalize() {
  // Idempotent: a second finalize() is a no-op, never a partial rebuild —
  // the parallel round engine shards over CSR rows and must never observe
  // a half-built structure (pending_ was already freed; re-running the
  // counting sort would wipe the CSR). add_edge() after finalize() is a
  // contract violation for the same reason.
  if (finalized_) return;
  // Counting sort into the flat row array: degree pass, prefix sums, fill.
  // The degree pass also counts each edge in its lower endpoint's upper
  // row, which fixes the edge-slot numbering.
  offsets_.assign(static_cast<std::size_t>(n_) + 1, 0);
  upper_off_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (const auto& [u, v] : pending_) {
    ++offsets_[static_cast<std::size_t>(u) + 1];
    ++offsets_[static_cast<std::size_t>(v) + 1];
    ++upper_off_[static_cast<std::size_t>(std::min(u, v)) + 1];
  }
  for (std::size_t v = 0; v < static_cast<std::size_t>(n_); ++v) {
    offsets_[v + 1] += offsets_[v];
    upper_off_[v + 1] += upper_off_[v];
  }
  csr_.resize(static_cast<std::size_t>(2 * m_));
  std::vector<std::int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : pending_) {
    csr_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = v;
    csr_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] = u;
  }
  pending_.clear();
  pending_.shrink_to_fit();

  for (int v = 0; v < n_; ++v) {
    const auto b = csr_.begin() + offsets_[static_cast<std::size_t>(v)];
    const auto e = csr_.begin() + offsets_[static_cast<std::size_t>(v) + 1];
    std::sort(b, e);
    CCG_CHECK_MSG(std::adjacent_find(b, e) == e,
                  "duplicate edge at vertex " << v);
  }
  finalized_ = true;
}

std::int64_t Graph::edge_slot(int u, int v) const {
  if (u > v) std::swap(u, v);
  if (u < 0 || v >= n_) return -1;
  const auto up = upper_neighbors(u);
  const auto it = std::lower_bound(up.begin(), up.end(), v);
  if (it == up.end() || *it != v) return -1;
  return upper_off_[static_cast<std::size_t>(u)] + (it - up.begin());
}

bool Graph::has_edge(int u, int v) const {
  CCG_CHECK(finalized_);
  const auto a = neighbors(u);
  const auto b = neighbors(v);
  const auto& small = a.size() <= b.size() ? a : b;
  const std::int32_t target =
      static_cast<std::int32_t>(a.size() <= b.size() ? v : u);
  return std::binary_search(small.begin(), small.end(), target);
}

int Graph::max_degree() const {
  CCG_CHECK(finalized_);
  int d = 0;
  for (int v = 0; v < n(); ++v) d = std::max(d, degree(v));
  return d;
}

std::vector<int> Graph::connected_components() const {
  std::vector<int> comp(static_cast<std::size_t>(n()), -1);
  int next = 0;
  std::queue<int> q;
  for (int s = 0; s < n(); ++s) {
    if (comp[static_cast<std::size_t>(s)] != -1) continue;
    comp[static_cast<std::size_t>(s)] = next;
    q.push(s);
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      for (const int u : neighbors(v)) {
        if (comp[static_cast<std::size_t>(u)] == -1) {
          comp[static_cast<std::size_t>(u)] = next;
          q.push(u);
        }
      }
    }
    ++next;
  }
  return comp;
}

bool Graph::is_connected() const {
  if (n() == 0) return true;
  const auto comp = connected_components();
  return std::all_of(comp.begin(), comp.end(),
                     [](int c) { return c == 0; });
}

std::vector<std::pair<int, int>> Graph::edges() const {
  CCG_CHECK(finalized_);
  std::vector<std::pair<int, int>> out;
  out.reserve(static_cast<std::size_t>(m_));
  for (int u = 0; u < n(); ++u) {
    for (const int v : upper_neighbors(u)) out.emplace_back(u, v);
  }
  return out;
}

std::size_t Graph::heap_bytes() const {
  return capacity_bytes(pending_) + capacity_bytes(offsets_) +
         capacity_bytes(upper_off_) + capacity_bytes(csr_);
}

std::pair<Graph, std::vector<int>> Graph::induced_subgraph(
    const std::vector<int>& keep) const {
  std::vector<int> new_id(static_cast<std::size_t>(n()), -1);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    new_id[static_cast<std::size_t>(keep[i])] = static_cast<int>(i);
  }
  Graph sub(static_cast<int>(keep.size()));
  for (const int u : keep) {
    for (const int v : neighbors(u)) {
      const int nu = new_id[static_cast<std::size_t>(u)];
      const int nv = new_id[static_cast<std::size_t>(v)];
      if (nv != -1 && nu < nv) sub.add_edge(nu, nv);
    }
  }
  sub.finalize();
  return {std::move(sub), keep};
}

}  // namespace ccg::graph
