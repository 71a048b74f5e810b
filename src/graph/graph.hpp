// Undirected graph container in CSR (compressed sparse row) layout.
//
// Used both for the communication network G (vertices = machines) and the
// cluster graph H (vertices = clusters). Edges accumulate in a staging
// buffer during the build phase; finalize() packs them into one flat
// int32 neighbor array plus an offsets array (sorted per row, duplicates
// and self-loops rejected) and locks the structure. All queries run on the
// flat arrays: neighbors(v) is a contiguous span and has_edge is an
// O(log deg) binary search of the smaller row. Beyond the CSR the graph
// holds only its two (n + 1)-entry offset arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace ccg::graph {

// Heap bytes a vector holds: its capacity, which is what memory budgets
// must charge.
template <class T>
std::size_t capacity_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

// Read-only view over one CSR row. Range-for yields the neighbor ids in
// ascending order, exactly like the former per-vertex sorted vector.
using NeighborSpan = std::span<const std::int32_t>;

class Graph {
 public:
  Graph() = default;
  explicit Graph(int n) : n_(n) {
    CCG_CHECK(n >= 0);
    offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
    upper_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  }

  static Graph from_edges(int n,
                          const std::vector<std::pair<int, int>>& edges);

  // Build phase. Self-loops are rejected immediately; duplicate edges are
  // rejected at finalize().
  void add_edge(int u, int v);

  // Packs the staging buffer into the CSR arrays, sorts each row, and
  // locks the structure. Must be called before any query. Idempotent.
  void finalize();

  int n() const { return n_; }
  std::int64_t m() const { return m_; }
  bool finalized() const { return finalized_; }

  NeighborSpan neighbors(int v) const {
    CCG_ASSERT(finalized_);
    const std::int64_t b = offsets_[static_cast<std::size_t>(v)];
    const std::int64_t e = offsets_[static_cast<std::size_t>(v) + 1];
    return {csr_.data() + b, static_cast<std::size_t>(e - b)};
  }
  int degree(int v) const {
    CCG_ASSERT(finalized_);
    return static_cast<int>(offsets_[static_cast<std::size_t>(v) + 1] -
                            offsets_[static_cast<std::size_t>(v)]);
  }
  // v's neighbors above v: the last upper_offsets()[v + 1] -
  // upper_offsets()[v] entries of its sorted row, in O(1). Walking every
  // row's upper part visits each edge once, in edges() order, without
  // materializing the edge list. Empty for every row before finalize().
  NeighborSpan upper_neighbors(int v) const {
    const auto i = static_cast<std::size_t>(v);
    const std::int64_t count = upper_off_[i + 1] - upper_off_[i];
    return {csr_.data() + offsets_[i + 1] - count,
            static_cast<std::size_t>(count)};
  }
  // n + 1 prefix sums of the upper-row sizes: row v's upper neighbors own
  // the edge slots [upper_offsets()[v], upper_offsets()[v + 1]), in row
  // order, and the last entry is m(). All zero before finalize().
  std::span<const std::int64_t> upper_offsets() const { return upper_off_; }
  // Slot of edge {u, v} (either order) in that numbering, i.e. its index
  // in edges(); -1 when u and v are not adjacent. A binary search of the
  // lower endpoint's upper row.
  std::int64_t edge_slot(int u, int v) const;
  // Binary search of the smaller of the two rows: O(log deg).
  bool has_edge(int u, int v) const;

  int max_degree() const;
  bool is_connected() const;

  // Component id per vertex, ids in [0, #components).
  std::vector<int> connected_components() const;

  // All edges as (u < v) pairs, sorted.
  std::vector<std::pair<int, int>> edges() const;

  // Heap bytes held (vector capacities: staging buffer, CSR and the two
  // offset arrays).
  std::size_t heap_bytes() const;

 private:
  int n_ = 0;
  std::int64_t m_ = 0;
  bool finalized_ = false;

  // Build-phase staging; freed by finalize().
  std::vector<std::pair<std::int32_t, std::int32_t>> pending_;

  // CSR arrays (offsets_ and upper_off_ have n_ + 1 entries — all zero
  // until finalize(), so pre-finalize queries read empty rows, never out
  // of bounds; csr_ has 2m entries). upper_off_ holds the prefix sums of
  // the upper-row sizes: the edge-slot numbering.
  std::vector<std::int64_t> offsets_{0};
  std::vector<std::int64_t> upper_off_{0};
  std::vector<std::int32_t> csr_;
};

}  // namespace ccg::graph
