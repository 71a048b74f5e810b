#include "color/matching.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/hashing.hpp"
#include "common/mathutil.hpp"
#include "sketch/fingerprint.hpp"

namespace ccg::color {

void colorful_matching_run(State& st, const std::vector<int>& clique_ids,
                           int target) {
  const auto& h = st.h();
  const int prefix = st.dc.reserved_cap;
  const int span = st.num_colors() - prefix;
  CCG_CHECK(span > 0);
  const int log_bits =
      2 * ceil_log2(static_cast<std::uint64_t>(std::max(2, h.n())));

  auto& sc = st.scratch;
  auto& par = *st.par;
  const auto& info = st.dc.info;
  sc.ensure_vertices(h.n());
  auto& done = st.ph.flags;
  done.assign(clique_ids.size(), 0);
  // Flat participant list per round (shard domain), enumerated clique by
  // clique: live clique j owns participants [seg[j], seg[j + 1]).
  auto& participants = sc.tmp_ints;
  auto& seg = st.ph.seg;
  for (int round = 0; round < kMatchingRounds; ++round) {
    // Enumerate this round's participants: uncolored members of cliques
    // still short of their target (sequential; no randomness).
    participants.clear();
    seg.clear();
    for (std::size_t ki = 0; ki < clique_ids.size(); ++ki) {
      const int k = clique_ids[ki];
      if (st.palettes[static_cast<std::size_t>(k)].repeats() >= target) {
        done[ki] = 1;
      }
      if (done[ki]) continue;
      seg.push_back(static_cast<int>(participants.size()));
      st.append_uncolored_members(k, &participants);
    }
    seg.push_back(static_cast<int>(participants.size()));
    if (participants.empty()) break;
    const auto total = static_cast<std::int64_t>(participants.size());

    // Propose (parallel shards): every participant draws activation and a
    // candidate color from its private counter-based stream and stamps the
    // shared candidate table — per-vertex disjoint writes, so shard
    // boundaries cannot change the outcome.
    sc.begin_round();
    st.bump_trial_round();
    par.shards(total, [&](int, std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        const int v = participants[static_cast<std::size_t>(i)];
        Rng rng = st.trial_rng(static_cast<std::uint64_t>(v));
        if (!rng.next_bool(0.5)) continue;
        const int c = prefix + static_cast<int>(rng.next_below(
                                   static_cast<std::uint64_t>(span)));
        sc.propose_at(v, c);
      }
    });

    // Verdict (parallel shards over the live cliques), a pure read of the
    // frozen candidate table. Two members of K are non-adjacent exactly
    // when one lies in the other's anti row, and a color commits in K only
    // when two non-adjacent members pick it. So each clique first flags
    // the colors that some proposer v shares with a member of anti(v)
    // (both are participants of K, since anti(v) ⊆ K). Only proposers of a
    // flagged color get a verdict; every other entry reads -1, as the
    // commit's even-size trim would leave its bucket of at most one chosen
    // member uncolored anyway. The verdict drops candidates clashing with
    // a colored neighbor or with an external candidate on the same color
    // (symmetric drop; conservative). Inside K the colored neighbors
    // holding c are the members colored c (the palette count; v itself is
    // uncolored) minus those in anti(v); outside K only ext(v) can clash.
    const auto survives = [&](int v, int c) {
      int inside =
          st.palettes[static_cast<std::size_t>(st.dc.clique_of(v))].count(c);
      if (inside > 0) {
        for (const int w : info.anti(v)) inside -= st.phi.get(w) == c;
      }
      if (inside != 0) return false;
      for (const int u : info.ext(v)) {
        if (st.phi.get(u) == c || sc.candidate(u) == c) return false;
      }
      return true;
    };
    auto& verdicts = sc.verdicts;
    verdicts.resize(participants.size());
    const auto live = static_cast<std::int64_t>(seg.size()) - 1;
    par.shards(live, [&](int w, std::int64_t b, std::int64_t e) {
      auto& paired = st.wscratch.at(w).paired;
      for (std::int64_t j = b; j < e; ++j) {
        const int lo = seg[static_cast<std::size_t>(j)];
        const int hi = seg[static_cast<std::size_t>(j) + 1];
        paired.rebind(st.num_colors());
        for (int i = lo; i < hi; ++i) {
          const int v = participants[static_cast<std::size_t>(i)];
          const int c = sc.candidate(v);
          if (c == TrialScratch::kNone || paired.contains(c)) continue;
          for (const int u : info.anti(v)) {
            if (sc.candidate(u) == c) {
              paired.add(c);
              break;
            }
          }
        }
        for (int i = lo; i < hi; ++i) {
          const int v = participants[static_cast<std::size_t>(i)];
          const int c = sc.candidate(v);
          const bool ok = c != TrialScratch::kNone && paired.contains(c) &&
                          survives(v, c);
          verdicts[static_cast<std::size_t>(i)] = ok ? c : -1;
        }
      }
    });

    // Commit (parallel shards over the live cliques): per clique and per
    // color, keep a maximal pairwise-non-adjacent even-size subset of the
    // same-color survivors; they all adopt the color (used >= twice =>
    // every adopted vertex provides reuse slack). Buckets materialize by
    // sorting a clique's (color, vertex) pairs. A clique's commit touches
    // only its own members and its own palette, so the cliques commit
    // independently and the result is the same for any shard split.
    par.shards(live, [&](int w, std::int64_t b, std::int64_t e) {
      auto& keyed = st.wscratch.at(w).keyed;
      auto& chosen = st.wscratch.at(w).tmp;
      for (std::int64_t j = b; j < e; ++j) {
        keyed.clear();
        for (int i = seg[static_cast<std::size_t>(j)];
             i < seg[static_cast<std::size_t>(j) + 1]; ++i) {
          const int c = verdicts[static_cast<std::size_t>(i)];
          if (c >= 0) {
            keyed.emplace_back(c, participants[static_cast<std::size_t>(i)]);
          }
        }
        std::sort(keyed.begin(), keyed.end());
        for (std::size_t lo = 0; lo < keyed.size();) {
          std::size_t hi = lo;
          while (hi < keyed.size() && keyed[hi].first == keyed[lo].first) {
            ++hi;
          }
          if (hi - lo >= 2) {
            chosen.clear();
            for (std::size_t i = lo; i < hi; ++i) {
              const int v = keyed[i].second;
              const auto anti = info.anti(v);
              const bool ok =
                  std::all_of(chosen.begin(), chosen.end(), [&](int u) {
                    return std::binary_search(anti.begin(), anti.end(), u);
                  });
              if (ok) chosen.push_back(v);
            }
            if (chosen.size() % 2 == 1) chosen.pop_back();
            if (chosen.size() >= 2) {
              const auto c = static_cast<int>(keyed[lo].first);
              for (const int v : chosen) st.assign(v, c);
            }
          }
          lo = hi;
        }
      }
    });
    st.rt->charge(2, log_bits);
  }
}

namespace {

// Algorithm 7's trial count k = max(8, round(kfactor * log2 n)).
int fingerprint_trials(const State& st) {
  return std::max(
      8, static_cast<int>(std::lround(kCabalMatchingKFactor *
                                      std::log2(std::max(4, st.h().n())))));
}

// Algorithm 7 on one clique's participating `members` (at least two), run
// in sequence on one worker's scratch `fp`: the member draws come from
// stream round base + 1 and the per-trial min-wise hashes from round
// base + 2 of a copy of st.streams, so a clique draws the same bits on any
// worker and in any batch. Writes `index` (vertex -> member index) only at
// its members, reads it only at anti-neighbors of its members (anti(u) ⊆
// K), and appends its pairs to *out. Charges nothing.
void match_clique(const State& st, const std::vector<int>& members,
                  std::uint64_t base, int* index,
                  WorkerScratch::FingerprintScratch& fp,
                  std::vector<std::pair<int, int>>* out) {
  const auto& h = st.h();
  const int sz = static_cast<int>(members.size());
  const int k_trials = fingerprint_trials(st);
  const auto szu = static_cast<std::size_t>(sz);
  const auto ktu = static_cast<std::size_t>(k_trials);
  StreamCtx streams = st.streams;

  // Step 2: every member fills its row of k_trials geometric draws from
  // its private counter-based stream and records its member index.
  streams.set_round(base + 1);
  fp.x.resize(szu * ktu);
  for (int i = 0; i < sz; ++i) {
    const int v = members[static_cast<std::size_t>(i)];
    index[v] = i;
    Rng rng = streams.rng_for(static_cast<std::uint64_t>(v));
    int* row = fp.x.data() + static_cast<std::size_t>(i) * ktu;
    for (int t = 0; t < k_trials; ++t) row[t] = rng.next_geometric_half();
  }

  // Clique maximum Y_K, aggregated on BFS trees in the model; its encoded
  // size is what the single-clique form charges. The maxima buffer is
  // scratch-owned (capacity reused). Steps 3-4 (local ids via prefix sums
  // in O(1) rounds, trial filtering via O(k_trials)-bit aggregated
  // bitmaps) keep each trial's unique maximum, if any: the same pass
  // makes a greater draw the trial's holder and lets an equal draw clear
  // it to -1. Every draw is >= 0 > kEmpty, so member 0 holds every trial
  // first.
  auto& yk = fp.yk;
  yk.maxima.assign(ktu, sketch::kEmpty);
  fp.argmax.assign(ktu, -1);
  for (int i = 0; i < sz; ++i) {
    const int* row = fp.x.data() + static_cast<std::size_t>(i) * ktu;
    for (int t = 0; t < k_trials; ++t) {
      int& y = yk.maxima[static_cast<std::size_t>(t)];
      int& arg = fp.argmax[static_cast<std::size_t>(t)];
      if (row[t] > y) {
        y = row[t];
        arg = i;
      } else if (row[t] == y) {
        arg = -1;
      }
    }
  }

  // A_i = {v != u_i : Y_v != Y_K}, where Y_v is the maximum over v's
  // in-clique neighbors, holds the members that detect an anti-edge to
  // u_i. Conditions (b) and steps 7-9 read it only on trials with a unique
  // maximum u_i: there Y_K = X_{u_i} and every other member drew strictly
  // less, so Y_v == Y_K exactly when u_i is a neighbor of v. A_i is
  // therefore anti(u_i) ∩ members, a walk over u_i's a_v anti-neighbors,
  // and the |K| x deg x k_trials pass that built every Y_v is not needed
  // (the ledger never charged it separately).
  // `index` is never cleared and holds no negative entry, so an entry
  // counts only when it points back at its vertex.
  const auto index_of = [&](int x) {
    const int i = index[x];
    return i < sz && members[static_cast<std::size_t>(i)] == x ? i : -1;
  };
  const auto anti_of = [&](int ui) {
    return st.dc.info.anti(members[static_cast<std::size_t>(ui)]);
  };

  // Conditions (b)-(c) are sequential by nature: a trial's eligibility
  // depends on which members earlier trials consumed as unique maxima.
  fp.used_as_max.assign(szu, 0);
  fp.trial_u.resize(ktu);
  for (int t = 0; t < k_trials; ++t) {
    fp.trial_u[static_cast<std::size_t>(t)] = -1;
    const int ui = fp.argmax[static_cast<std::size_t>(t)];
    // Condition (c): u_i must not have been a unique maximum before.
    if (ui < 0 || fp.used_as_max[static_cast<std::size_t>(ui)]) continue;
    // Condition (b): A_i must be non-empty.
    const auto anti = anti_of(ui);
    if (std::none_of(anti.begin(), anti.end(),
                     [&](int x) { return index_of(x) >= 0; })) {
      continue;
    }
    fp.used_as_max[static_cast<std::size_t>(ui)] = 1;
    fp.trial_u[static_cast<std::size_t>(t)] = ui;
  }

  // Steps 7-9: the per-trial min-wise hash, derived from the trial's
  // private counter-based stream, selects the anti-neighbor w_i. Hash
  // description: O(log|K| * log 1/eps) bits.
  streams.set_round(base + 2);
  fp.trial_w.resize(ktu);
  for (int t = 0; t < k_trials; ++t) {
    fp.trial_w[static_cast<std::size_t>(t)] = -1;
    const int ui = fp.trial_u[static_cast<std::size_t>(t)];
    if (ui < 0) continue;
    Rng rng = streams.rng_for(static_cast<std::uint64_t>(t));
    MinWiseHash hash(static_cast<std::uint64_t>(std::max(2, sz)), 0.5, rng);
    int best = -1;
    std::uint64_t best_h = 0;
    for (const int x : anti_of(ui)) {
      const int i = index_of(x);
      if (i < 0) continue;
      const auto hi = hash(static_cast<std::uint64_t>(i));
      if (best < 0 || hi < best_h || (hi == best_h && i < best)) {
        best = i;
        best_h = hi;
      }
    }
    fp.trial_w[static_cast<std::size_t>(t)] = best;
  }

  // Step 10: discard trials whose unique max was sampled as an
  // anti-neighbor elsewhere. Step 11: each w keeps a single trial.
  // (Commit in trial order.)
  fp.sampled_w.assign(szu, 0);
  for (int t = 0; t < k_trials; ++t) {
    const int wi = fp.trial_w[static_cast<std::size_t>(t)];
    if (wi >= 0) fp.sampled_w[static_cast<std::size_t>(wi)] = 1;
  }
  fp.w_seen.assign(szu, 0);
  for (int t = 0; t < k_trials; ++t) {
    const int ui = fp.trial_u[static_cast<std::size_t>(t)];
    const int wi = fp.trial_w[static_cast<std::size_t>(t)];
    if (ui < 0 || wi < 0) continue;
    if (fp.sampled_w[static_cast<std::size_t>(ui)]) continue;  // step 10
    if (fp.w_seen[static_cast<std::size_t>(wi)]) continue;     // step 11
    fp.w_seen[static_cast<std::size_t>(wi)] = 1;
    const int u = members[static_cast<std::size_t>(ui)];
    const int w = members[static_cast<std::size_t>(wi)];
    CCG_CHECK_MSG(!h.has_edge(u, w),
                  "fingerprint matching produced a real edge");
    out->emplace_back(u, w);
  }
  // The matching must be vertex-disjoint: u's are distinct by condition
  // (c), w's by step 11, and u's never appear as w's by step 10.
}

// The shared vertex -> member index array, grown to n entries.
int* member_index(State& st) {
  auto& index = st.scratch.fp_index;
  if (index.size() < static_cast<std::size_t>(st.h().n())) {
    index.resize(static_cast<std::size_t>(st.h().n()));
  }
  return index.data();
}

}  // namespace

void fingerprint_matching_charge(State& st) {
  const int n = st.h().n();
  const int k_trials = fingerprint_trials(st);
  // Fingerprint aggregation + trial bitmaps + min-wise hash rounds +
  // output dissemination (Lemma 6.3's O(1/eps^2) rounds).
  st.rt->charge(3, 2 * k_trials + 64);
  st.rt->charge(4, k_trials);
  st.rt->charge(3, 4 * ceil_log2(static_cast<std::uint64_t>(
                         std::max(2, n))));
  st.rt->charge(2, k_trials);
}

void fingerprint_matching_into(State& st, int clique_id,
                               const std::vector<int>* subset, bool charge,
                               std::vector<std::pair<int, int>>* out) {
  const auto& members =
      subset ? *subset
             : st.dc.acd.members[static_cast<std::size_t>(clique_id)];
  const int sz = static_cast<int>(members.size());
  if (sz < 2) return;
  const std::uint64_t base = st.streams.round();
  auto& fp = st.wscratch.at(0).fp;
  match_clique(st, members, base, member_index(st), fp, out);
  st.streams.set_round(base + 2);
  if (charge) {
    // Y_K's tree aggregation at its encoded size, the trial bitmaps, the
    // min-wise hash description and the output dissemination.
    const int k_trials = fingerprint_trials(st);
    st.rt->charge(3, std::max(1, sketch::encoded_bits(fp.yk)));
    st.rt->charge(4, k_trials);
    st.rt->charge(3, 4 * ceil_log2(static_cast<std::uint64_t>(
                           std::max(2, sz))));
    st.rt->charge(2, k_trials);
  }
}

void fingerprint_matching_batch(State& st, const std::vector<int>& cliques,
                                const GroupLists* subsets,
                                std::vector<std::pair<int, int>>* out) {
  if (cliques.empty()) return;
  const auto members_of = [&](std::size_t j) -> const std::vector<int>& {
    return subsets ? subsets->at(static_cast<int>(j))
                   : st.dc.acd.members[static_cast<std::size_t>(cliques[j])];
  };
  // Clique j starts at stream round base[j] and uses two rounds when it
  // has two or more participants, none otherwise (as its own call would).
  auto& base = st.scratch.fp_base;
  base.resize(cliques.size() + 1);
  base[0] = st.streams.round();
  for (std::size_t j = 0; j < cliques.size(); ++j) {
    base[j + 1] = base[j] + (members_of(j).size() >= 2 ? 2 : 0);
  }
  int* index = member_index(st);
  // A worker whose shard is empty runs nothing, so every buffer is
  // cleared here, not in the task.
  const int workers = st.par->workers();
  for (int w = 0; w < workers; ++w) st.wscratch.at(w).fp_pairs.clear();
  st.par->shards(static_cast<std::int64_t>(cliques.size()),
                 [&](int w, std::int64_t b, std::int64_t e) {
    auto& ws = st.wscratch.at(w);
    for (auto j = static_cast<std::size_t>(b);
         j < static_cast<std::size_t>(e); ++j) {
      const auto& members = members_of(j);
      if (members.size() < 2) continue;
      match_clique(st, members, base[j], index, ws.fp, &ws.fp_pairs);
    }
  });
  // Shards are static and contiguous, so worker order is clique order.
  for (int w = 0; w < workers; ++w) {
    const auto& pairs = st.wscratch.at(w).fp_pairs;
    out->insert(out->end(), pairs.begin(), pairs.end());
  }
  st.streams.set_round(base[cliques.size()]);
}

int color_anti_matching(State& st,
                        const std::vector<std::pair<int, int>>& pairs) {
  const auto& h = st.h();
  const int prefix = st.dc.reserved_cap;
  const int span = st.num_colors() - prefix;
  CCG_CHECK(span > 0);
  const int log_bits =
      2 * ceil_log2(static_cast<std::uint64_t>(std::max(2, h.n())));

  // Round worklists and the pair -> candidate-color table live in the
  // State-owned PhaseScratch (dedicated buffers: both pipeline batch
  // callers hold their pairs in ph.pairs while this runs).
  auto& todo = st.ph.am_todo;
  todo.resize(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    todo[i] = static_cast<int>(i);
  }
  int colored = 0;
  int blocked = 0;
  auto& sc = st.scratch;
  auto& par = *st.par;
  sc.ensure_vertices(h.n());
  auto& pair_cand = st.ph.am_cand;  // pair index -> color
  pair_cand.assign(pairs.size(), -1);
  auto& next = st.ph.am_next;
  next.clear();
  // Pair-level synchronized trials (Algorithm 6 step 3, with the random
  // groups of Lemma 4.4 relaying between the pair's endpoints).
  for (int round = 0; round < kMctMaxRounds && !todo.empty();
       ++round) {
    const auto total = static_cast<std::int64_t>(todo.size());
    // Propose (parallel shards): every live pair draws its candidate from
    // the pair's private counter-based stream and stamps its index on both
    // endpoints (the matching is vertex-disjoint, so the writes are too).
    sc.begin_round();
    st.bump_trial_round();
    par.shards(total, [&](int, std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        const int pi = todo[static_cast<std::size_t>(i)];
        Rng rng = st.trial_rng(static_cast<std::uint64_t>(pi));
        const int c = prefix + static_cast<int>(rng.next_below(
                                   static_cast<std::uint64_t>(span)));
        pair_cand[static_cast<std::size_t>(pi)] = c;
        sc.propose_at(pairs[static_cast<std::size_t>(pi)].first, pi);
        sc.propose_at(pairs[static_cast<std::size_t>(pi)].second, pi);
      }
    });
    // Verdict (parallel shards) against the frozen candidate table.
    auto& verdicts = sc.verdicts;
    verdicts.resize(todo.size());
    par.shards(total, [&](int, std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        const int pi = todo[static_cast<std::size_t>(i)];
        const auto& [a, b2] = pairs[static_cast<std::size_t>(pi)];
        const int c = pair_cand[static_cast<std::size_t>(pi)];
        bool ok = !st.phi.neighbor_uses(h, a, c) &&
                  !st.phi.neighbor_uses(h, b2, c);
        if (ok) {
          // Conflicts with other pairs trying the same color: yield to the
          // pair with the smaller minimum endpoint.
          const int my_id = std::min(a, b2);
          for (const int endpoint : {a, b2}) {
            for (const int u : h.neighbors(endpoint)) {
              const int qi = sc.candidate(u);
              if (qi == TrialScratch::kNone ||
                  pair_cand[static_cast<std::size_t>(qi)] != c) {
                continue;
              }
              const auto& [qa, qb] = pairs[static_cast<std::size_t>(qi)];
              if (std::min(qa, qb) < my_id) {
                ok = false;
                break;
              }
            }
            if (!ok) break;
          }
        }
        verdicts[static_cast<std::size_t>(i)] = ok ? 1 : 0;
      }
    });
    // Commit (sequential, input order).
    next.clear();
    for (std::size_t i = 0; i < todo.size(); ++i) {
      const int pi = todo[i];
      if (verdicts[i]) {
        const auto& [a, b2] = pairs[static_cast<std::size_t>(pi)];
        st.assign(a, pair_cand[static_cast<std::size_t>(pi)]);
        st.assign(b2, pair_cand[static_cast<std::size_t>(pi)]);
        ++colored;
      } else {
        next.push_back(pi);
      }
    }
    st.rt->charge(3, log_bits);
    // Blocked pairs (parallel shards): a failed pair whose endpoints'
    // neighbors already hold every non-reserved color can never pass the
    // verdict, since colors are only ever added, so it leaves the trials
    // now instead of drawing until kMctMaxRounds.
    verdicts.resize(next.size());
    par.shards(static_cast<std::int64_t>(next.size()),
               [&](int w, std::int64_t b, std::int64_t e) {
      auto& held = st.wscratch.at(w).blocked;
      for (std::int64_t i = b; i < e; ++i) {
        const int pi = next[static_cast<std::size_t>(i)];
        const auto& [a, b2] = pairs[static_cast<std::size_t>(pi)];
        held.rebind(st.num_colors());
        for (const int endpoint : {a, b2}) {
          for (const int u : h.neighbors(endpoint)) {
            if (st.phi.colored(u)) held.add(st.phi.get(u));
          }
        }
        verdicts[static_cast<std::size_t>(i)] =
            held.count_in(prefix, st.num_colors() - 1) == span;
      }
    });
    todo.clear();
    for (std::size_t i = 0; i < next.size(); ++i) {
      if (verdicts[i]) {
        ++blocked;
      } else {
        todo.push_back(next[i]);
      }
    }
  }
  // Pairs still uncolored (blocked, or out of trials) stay uncolored for
  // the later phases and the safety net.
  st.retry_count += blocked + static_cast<int>(todo.size());
  return colored;
}

}  // namespace ccg::color
