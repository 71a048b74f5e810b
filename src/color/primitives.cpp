#include "color/primitives.hpp"

#include <algorithm>

#include "common/mathutil.hpp"

namespace ccg::color {

int try_color_round(State& st, const std::vector<int>& S,
                    const ColorSampler& sampler, double activation) {
  const auto& h = st.h();
  auto& sc = st.scratch;
  auto& par = *st.par;
  sc.ensure_vertices(h.n());
  const auto total = static_cast<std::int64_t>(S.size());
  // Sampling phase (parallel shards): every vertex draws from its private
  // counter-based stream and stamps its candidate — per-vertex disjoint
  // writes against the same snapshot, so shard boundaries cannot change
  // the outcome. The candidate table lives in the epoch-stamped scratch,
  // so a round makes no heap allocations once the buffers hit their
  // high-water capacity (single-worker shards run inline).
  sc.begin_round();
  st.bump_trial_round();
  par.shards(total, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const int v = S[static_cast<std::size_t>(i)];
      if (st.phi.colored(v)) continue;
      Rng rng = st.trial_rng(static_cast<std::uint64_t>(v));
      if (!rng.next_bool(activation)) continue;
      const int c = sampler(v, rng);
      if (c >= 0) sc.propose_at(v, c);
    }
  });
  // Adoption phase (Algorithm 17, step 4; parallel shards): keep c(v) iff
  // it is free among colored neighbors and no smaller-ID active neighbor
  // picked it too — a pure read of the frozen candidate table, written
  // into per-position verdict slots. Both conditions test the single
  // candidate color, so one pass over N(v) covers them.
  auto& verdicts = sc.verdicts;
  verdicts.resize(S.size());
  par.shards(total, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const int v = S[static_cast<std::size_t>(i)];
      const int c = sc.candidate(v);
      bool ok = c >= 0;
      if (ok) {
        for (const int u : h.neighbors(v)) {
          if (st.phi.get(u) == c || (u < v && sc.candidate(u) == c)) {
            ok = false;
            break;
          }
        }
      }
      verdicts[static_cast<std::size_t>(i)] = ok ? c : -1;
    }
  });
  // Commit (sequential, in S order): palette updates are O(adopted) and
  // not thread-safe; nothing random happens past this point.
  int adopted = 0;
  for (std::size_t i = 0; i < S.size(); ++i) {
    if (verdicts[i] >= 0) {
      st.assign(S[i], verdicts[i]);
      ++adopted;
    }
  }
  // Candidate broadcast + accept/reject echo: 2 H-rounds, O(log n) bits.
  st.rt->charge(2, 2 * ceil_log2(static_cast<std::uint64_t>(
                        std::max(2, st.h().n()))));
  return adopted;
}

int try_color_rounds(State& st, std::vector<int>* S,
                     const ColorSampler& sampler, double activation,
                     int rounds) {
  int total = 0;
  for (int r = 0; r < rounds && !S->empty(); ++r) {
    total += try_color_round(st, *S, sampler, activation);
    prune_colored(st, S);
  }
  return total;
}

ColorSampler uniform_sampler(int num_colors, int prefix) {
  CCG_CHECK(prefix >= 0 && prefix < num_colors);
  return [num_colors, prefix](int, Rng& rng) {
    return prefix + static_cast<int>(rng.next_below(
                        static_cast<std::uint64_t>(num_colors - prefix)));
  };
}

ColorSampler clique_palette_sampler(State& st) {
  return [&st](int v, Rng& rng) -> int {
    const int k = st.dc.clique_of(v);
    if (k < 0) return -1;
    const auto& pal = st.palettes[static_cast<std::size_t>(k)];
    const int lo = st.dc.r_of(v);
    const int free = pal.free_count(lo, pal.num_colors() - 1);
    if (free <= 0) return -1;
    const int idx = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(free)));
    return pal.select_free(lo, pal.num_colors() - 1, idx);
  };
}

void uncolored_of(const State& st, const std::vector<int>& S,
                  std::vector<int>* out) {
  out->clear();
  out->reserve(S.size());
  for (const int v : S) {
    if (!st.phi.colored(v)) out->push_back(v);
  }
}

void prune_colored(const State& st, std::vector<int>* S) {
  S->erase(std::remove_if(S->begin(), S->end(),
                          [&st](int v) { return st.phi.colored(v); }),
           S->end());
}

}  // namespace ccg::color
