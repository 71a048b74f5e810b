#include "color/sync_trial.hpp"

#include <algorithm>

#include "common/hashing.hpp"
#include "common/mathutil.hpp"

namespace ccg::color {

void synchronized_color_trial(State& st,
                              const std::vector<int>& clique_ids,
                              std::span<const std::vector<int>> S_of,
                              std::vector<SyncTrialResult>* results) {
  CCG_CHECK(clique_ids.size() == S_of.size());
  const auto& h = st.h();
  auto& sc = st.scratch;
  auto& par = *st.par;
  sc.ensure_vertices(h.n());

  // Phase 1 (parallel over cliques — they are vertex-disjoint, so the
  // candidate stamps never collide): enumerate S, derive the permutation
  // seed from the clique's counter-based stream, fetch assigned colors.
  // Nothing is adopted yet — candidates from different cliques must see a
  // consistent snapshot. The candidate table is the epoch-stamped scratch
  // (vertex -> color this round).
  sc.begin_round();
  st.bump_trial_round();
  if (results != nullptr) results->assign(clique_ids.size(), {});
  // Clique id -> position in clique_ids, for the adoption tally.
  auto& idx_of = sc.tmp_ints;
  idx_of.assign(static_cast<std::size_t>(st.dc.acd.num_cliques), -1);
  for (std::size_t idx = 0; idx < clique_ids.size(); ++idx) {
    idx_of[static_cast<std::size_t>(clique_ids[idx])] =
        static_cast<int>(idx);
  }
  par.reset_acc(0);  // per-worker retry tallies
  par.shards(static_cast<std::int64_t>(clique_ids.size()),
             [&](int w, std::int64_t b, std::int64_t e) {
    auto& ws = st.wscratch.at(w);
    for (std::int64_t idx = b; idx < e; ++idx) {
      const int k = clique_ids[static_cast<std::size_t>(idx)];
      auto& S = ws.tmp;
      S.assign(S_of[static_cast<std::size_t>(idx)].begin(),
               S_of[static_cast<std::size_t>(idx)].end());
      if (S.empty()) continue;
      const auto& pal = st.palettes[static_cast<std::size_t>(k)];
      const int r = st.dc.reserved[static_cast<std::size_t>(k)];
      const int avail = pal.free_count(r, pal.num_colors() - 1);
      if (static_cast<int>(S.size()) > avail) {
        // Lemma 4.12 rules this out w.h.p.; trim deterministically
        // (counted as a retry-shaped deviation).
        std::sort(S.begin(), S.end());
        S.resize(static_cast<std::size_t>(std::max(0, avail)));
        ++par.acc(w);
      }
      if (S.empty()) continue;
      std::sort(S.begin(), S.end());  // enumeration order (prefix sums)
      const FeistelPermutation pi(
          S.size(), st.trial_rng(static_cast<std::uint64_t>(k)).next_u64());
      // Permutation positions cover exactly the |S| lowest free colors of
      // [r, Delta], so one word-parallel walk enumerates them all; each
      // position is then an index into the buffer, identical to the former
      // per-position select_free query.
      auto& freec = ws.set_buf;
      freec.clear();
      {
        const auto& used = pal.used();
        int c = used.next_free(r);
        while (freec.size() < S.size()) {
          CCG_CHECK(c >= 0);
          freec.push_back(c);
          c = used.next_free(c + 1);
        }
      }
      for (std::size_t i = 0; i < S.size(); ++i) {
        const int pos = static_cast<int>(pi(i));
        sc.propose_at(S[i], freec[static_cast<std::size_t>(pos)]);
      }
      if (results != nullptr) {
        (*results)[static_cast<std::size_t>(idx)].participated =
            static_cast<int>(S.size());
      }
    }
  });
  st.retry_count += static_cast<int>(par.acc_sum());

  // Phase 2 (parallel over cliques): resolve conflicts. Within a clique,
  // colors are distinct by construction; a vertex drops only if an
  // external neighbor already holds its color or simultaneously tries it
  // (symmetric drop — external randomness may be adversarial, Lemma 4.13).
  // Adoptions are per-vertex independent, so workers collect shard-local
  // lists; the commit below applies them in worker order — assign() and
  // the tallies commute, so the final state is partition-independent.
  for (int w = 0; w < par.workers(); ++w) st.wscratch.at(w).adopted.clear();
  par.shards(static_cast<std::int64_t>(clique_ids.size()),
             [&](int w, std::int64_t b, std::int64_t e) {
    auto& adopted = st.wscratch.at(w).adopted;
    for (std::int64_t idx = b; idx < e; ++idx) {
      const int kv = clique_ids[static_cast<std::size_t>(idx)];
      for (const int v : S_of[static_cast<std::size_t>(idx)]) {
        const int c = sc.candidate(v);
        if (c < 0) continue;  // trimmed out in phase 1
        bool ok = true;
        for (const int u : h.neighbors(v)) {
          if (st.dc.clique_of(u) == kv) continue;
          if (st.phi.get(u) == c || sc.candidate(u) == c) {
            ok = false;
            break;
          }
        }
        if (ok) adopted.emplace_back(v, c);
      }
    }
  });
  for (int w = 0; w < par.workers(); ++w) {
    for (const auto& [v, c] : st.wscratch.at(w).adopted) {
      st.assign(v, c);
      if (results != nullptr) {
        ++(*results)[static_cast<std::size_t>(
                         idx_of[static_cast<std::size_t>(
                             st.dc.clique_of(v))])]
              .colored;
      }
    }
  }

  // Enumeration (prefix sums on a height-<=2 tree) + seed broadcast +
  // palette query + conflict exchange: O(1) H-rounds of O(log n) bits.
  st.rt->charge(5, 2 * ceil_log2(static_cast<std::uint64_t>(
                        std::max(2, h.n()))));
}

}  // namespace ccg::color
