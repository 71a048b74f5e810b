#include "color/coloring.hpp"

#include <algorithm>

#include "common/mathutil.hpp"

namespace ccg::color {

bool Coloring::neighbor_uses(const graph::Graph& h, int v, int c) const {
  for (const int u : h.neighbors(v)) {
    if (get(u) == c) return true;
  }
  return false;
}

int Coloring::uncolored_degree(const graph::Graph& h, int v) const {
  int d = 0;
  for (const int u : h.neighbors(v)) {
    if (!colored(u)) ++d;
  }
  return d;
}

void State::reset(cluster::Runtime& runtime, const Params& p) {
  rt = &runtime;
  params = p;
  const int n = runtime.h().n();
  phi.reset(n);
  // Dense structure back to the all-sparse post-construction shape; every
  // capacity (acd members' inner vectors included) persists as grow-only
  // storage for the next build_dense_context. Stale palettes likewise stay
  // allocated past the old clique count: nothing indexes them until
  // init_palettes rebinds [0, num_cliques) for the new decomposition.
  dc.reset(n);
  rng = Rng(p.seed);
  scratch.ensure_vertices(n);
  // Heterogeneous-thread job streams: re-target the persistent pool in
  // place (spawn/retire only the delta of workers) instead of discarding
  // and reconstructing it.
  par->resize(p.threads);
  scratch.ensure_workers(par->workers());
  wscratch.ensure_workers(par->workers());
  fallback_count = 0;
  retry_count = 0;
  cancel = nullptr;
  par->set_cancel(nullptr);
  streams.reseed(p.seed);
}

void State::assign(int v, int c) {
  phi.set(v, c);
  const int k = dc.clique_of(v);
  if (k >= 0 && !palettes.empty()) {
    palettes[static_cast<std::size_t>(k)].add(c);
  }
}

void State::unassign(int v) {
  const int c = phi.get(v);
  if (c == kUncolored) return;
  const int k = dc.clique_of(v);
  if (k >= 0 && !palettes.empty()) {
    palettes[static_cast<std::size_t>(k)].remove(c);
  }
  phi.unset(v);
}

void State::init_palettes() {
  // Grow-only: construct only the palettes this decomposition needs beyond
  // the high-water count, then rebind the live prefix. Entries past
  // num_cliques are stale and never indexed (clique ids bound them).
  while (static_cast<int>(palettes.size()) < dc.acd.num_cliques) {
    palettes.emplace_back(num_colors());
  }
  for (int k = 0; k < dc.acd.num_cliques; ++k) {
    palettes[static_cast<std::size_t>(k)].rebind(num_colors());
  }
  // Fold in any colors already assigned (normally none at this point).
  for (int v = 0; v < h().n(); ++v) {
    const int k = dc.clique_of(v);
    if (k >= 0 && phi.colored(v)) {
      palettes[static_cast<std::size_t>(k)].add(phi.get(v));
    }
  }
}

double State::x_proxy(int v) const {
  const int k = dc.clique_of(v);
  CCG_CHECK(k >= 0);
  return dc.info.clique_size[static_cast<std::size_t>(k)] -
         (delta() + 1) + dc.ext_est(v);
}

std::vector<int> State::uncolored_members(int k) const {
  std::vector<int> out;
  append_uncolored_members(k, &out);
  return out;
}

void State::append_uncolored_members(int k, std::vector<int>* out) const {
  for (const int v : dc.acd.members[static_cast<std::size_t>(k)]) {
    if (!phi.colored(v)) out->push_back(v);
  }
}

int fallback_finish(State& st, const std::vector<int>& vertices) {
  // Local-minimum priority: in each round, every uncolored vertex that has
  // no uncolored listed neighbor with smaller id picks its smallest free
  // color. Each round costs O(1) H-rounds of O(log n)-bit messages (the
  // free color is found by neighbor-assisted binary search, Section 1.1).
  //
  // Rounds run as verdict (parallel shards) -> commit (sequential): both
  // the local-minimum test and the smallest-free-color search read only
  // the frozen coloring of the previous round, so decisions are
  // per-vertex independent; worker-order concatenation of the shard-local
  // lists preserves input order (static shard bounds), making every round
  // worker-count independent. No randomness is involved.
  const auto& h = st.h();
  auto& sc = st.scratch;
  auto& par = *st.par;
  sc.ensure_vertices(h.n());
  auto& todo = sc.fb_todo;  // claimed with the vertex marks for the run
  todo.clear();
  for (const int v : vertices) {
    if (!st.phi.colored(v)) todo.push_back(v);
  }
  int colored_here = 0;
  sc.begin_vertex_marks();  // marks = participating vertices
  for (const int v : todo) sc.mark_vertex(v);
  auto& next = sc.fb_next;
  while (!todo.empty()) {
    for (int w = 0; w < par.workers(); ++w) {
      st.wscratch.at(w).adopted.clear();
      st.wscratch.at(w).kept.clear();
    }
    par.shards(static_cast<std::int64_t>(todo.size()),
               [&](int w, std::int64_t b, std::int64_t e) {
      auto& ws = st.wscratch.at(w);
      for (std::int64_t i = b; i < e; ++i) {
        const int v = todo[static_cast<std::size_t>(i)];
        // Priority only against *participating* uncolored vertices; other
        // uncolored vertices (e.g. put-aside sets awaiting a later phase)
        // must not block progress.
        bool local_min = true;
        for (const int u : h.neighbors(v)) {
          if (u < v && sc.vertex_marked(u) && !st.phi.colored(u)) {
            local_min = false;
            break;
          }
        }
        if (!local_min) {
          ws.kept.push_back(v);
          continue;
        }
        // Smallest free color, word-wise: one pass over N(v) builds the
        // used-color set, first_free() is a complement walk + ctz. Same
        // index as the former per-color neighbor_uses scan at O(deg +
        // palette words) instead of O(c * deg).
        auto& used = ws.blocked;
        used.rebind(st.num_colors());
        for (const int u : h.neighbors(v)) {
          const int cu = st.phi.get(u);
          if (cu >= 0) used.add(cu);
        }
        const int c = used.first_free();
        CCG_CHECK_MSG(c >= 0, "no free color in fallback; graph violates "
                              "Delta+1 colorability assumption");
        ws.adopted.emplace_back(v, c);
      }
    });
    next.clear();
    for (int w = 0; w < par.workers(); ++w) {
      for (const auto& [v, c] : st.wscratch.at(w).adopted) {
        st.assign(v, c);
        ++st.fallback_count;
        ++colored_here;
      }
      auto& kept = st.wscratch.at(w).kept;
      next.insert(next.end(), kept.begin(), kept.end());
    }
    // Binary search for a free color: O(log Delta) H-rounds of O(log n)
    // bits (Section 1.1's neighbor-assisted search).
    st.rt->charge(std::max(1, ceil_log2(static_cast<std::uint64_t>(
                                 std::max(2, st.delta())))),
                  2 * ceil_log2(static_cast<std::uint64_t>(
                          std::max(2, st.h().n()))));
    std::swap(todo, next);
  }
  return colored_here;
}

}  // namespace ccg::color
