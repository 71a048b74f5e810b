#include "color/putaside.hpp"

#include <algorithm>
#include <cstdint>

#include "common/mathutil.hpp"

namespace ccg::color {

namespace {

int log_bits(const State& st) {
  return 2 * ceil_log2(
                 static_cast<std::uint64_t>(std::max(2, st.h().n())));
}

// Uncolored inliers of cabal k (cabal inlier rule, Section 4.3: low
// estimated external degree only), written into `out` (cleared first).
void eligible_members(const State& st, int k, std::vector<int>* out) {
  out->clear();
  const double ek = st.dc.info.avg_ext_est[static_cast<std::size_t>(k)];
  for (const int v : st.dc.acd.members[static_cast<std::size_t>(k)]) {
    if (st.phi.colored(v)) continue;
    if (st.dc.ext_est(v) <= kInlierExtFactor * std::max(1.0, ek)) {
      out->push_back(v);
    }
  }
}

}  // namespace

int compute_putaside(State& st, const std::vector<int>& cabal_ids, int r,
                     GroupLists* sets_out, bool* property3_ok) {
  CCG_CHECK(r >= 1);
  const auto& h = st.h();
  auto& sc = st.scratch;
  auto& par = *st.par;
  *property3_ok = true;
  int attempts = 1;

  sc.ensure_vertices(h.n());
  const auto num_cabals = static_cast<std::int64_t>(cabal_ids.size());
  // Candidate list of one attempt: worker-order concatenation of the
  // shard-local lists equals cabal order (shard bounds are static and
  // ordered), so the commit below is worker-count independent.
  auto& candidates = sc.tmp_ints;
  auto& prop3_bad = st.ph.flags;
  prop3_bad.assign(cabal_ids.size(), 0);
  for (int attempt = 0; attempt < 5; ++attempt) {
    attempts = attempt + 1;
    // Propose (parallel shards over cabals — they are vertex-disjoint):
    // each cabal enumerates its eligible members into worker scratch and
    // every eligible vertex draws its activation from its private
    // counter-based stream, stamping the shared candidate table
    // (vertex -> cabal index this round).
    sc.begin_round();
    st.bump_trial_round();
    for (int w = 0; w < par.workers(); ++w) st.wscratch.at(w).kept.clear();
    par.shards(num_cabals, [&](int w, std::int64_t b, std::int64_t e) {
      auto& ws = st.wscratch.at(w);
      for (std::int64_t idx = b; idx < e; ++idx) {
        eligible_members(st, cabal_ids[static_cast<std::size_t>(idx)],
                         &ws.tmp);
        const double p = std::min(
            0.5, 2.5 * r / std::max<std::size_t>(1, ws.tmp.size()));
        for (const int v : ws.tmp) {
          if (st.trial_rng(static_cast<std::uint64_t>(v)).next_bool(p)) {
            sc.propose_at(v, static_cast<int>(idx));
            ws.kept.push_back(v);
          }
        }
      }
    });
    candidates.clear();
    for (int w = 0; w < par.workers(); ++w) {
      const auto& kept = st.wscratch.at(w).kept;
      candidates.insert(candidates.end(), kept.begin(), kept.end());
    }

    // Verdict (parallel shards over candidates): cross-cabal conflicts
    // resolved by ID priority — the smaller-ID candidate survives (one
    // exchange round; keeps the surviving sets mutually independent while
    // retiring only one endpoint per edge). Each candidate marks only
    // itself (marks = dropped), so the writes are per-vertex disjoint.
    sc.begin_vertex_marks();
    par.shards(static_cast<std::int64_t>(candidates.size()),
               [&](int, std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        const int v = candidates[static_cast<std::size_t>(i)];
        const int ci = sc.candidate(v);
        for (const int u : h.neighbors(v)) {
          if (u >= v) continue;
          const int cu = sc.candidate(u);
          if (cu != TrialScratch::kNone && cu != ci) {
            sc.mark_vertex(v);
            break;
          }
        }
      }
    });

    // Commit (sequential): collect the surviving sets in candidate order,
    // into the caller's grow-only group storage (inner lists keep their
    // capacity across attempts and across jobs).
    sets_out->reset(static_cast<int>(cabal_ids.size()));
    for (const int v : candidates) {
      if (!sc.vertex_marked(v)) {
        sets_out->at(sc.candidate(v)).push_back(v);
      }
    }
    bool ok = true;
    for (int i = 0; i < sets_out->groups(); ++i) {
      auto& s = sets_out->at(i);
      if (static_cast<int>(s.size()) < r) {
        ok = false;
        break;
      }
      std::sort(s.begin(), s.end());
      s.resize(static_cast<std::size_t>(r));
    }
    st.rt->charge(2, log_bits(st));
    if (!ok) {
      ++st.retry_count;
      continue;
    }

    // One-sided pruning may leave an edge from a *pruned-away* kept
    // candidate; verify independence of the final truncated sets and
    // retry in the (rare) violating case. Membership rides on the vertex
    // marks; a put vertex's cabal index is its surviving candidate value.
    sc.begin_vertex_marks();  // marks = in some put-aside set
    for (const auto& s : sets_out->view()) {
      for (const int v : s) sc.mark_vertex(v);
    }
    bool independent = true;
    for (const auto& s : sets_out->view()) {
      for (const int v : s) {
        for (const int u : h.neighbors(v)) {
          if (sc.vertex_marked(u) &&
              sc.candidate(u) != sc.candidate(v)) {
            independent = false;
            break;
          }
        }
        if (!independent) break;
      }
      if (!independent) break;
    }
    if (!independent) {
      ++st.retry_count;
      continue;
    }

    // Lemma 4.18 (3) is a log^21-regime property (exposed fraction ~
    // e_v * |P| / Delta); at laptop scale we *measure* it against a
    // calibrated threshold instead of retrying on it. The exposure scan
    // is read-only over the frozen marks, so it shards over cabals.
    par.shards(num_cabals, [&](int, std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        const auto& members = st.dc.acd.members[static_cast<std::size_t>(
            cabal_ids[static_cast<std::size_t>(i)])];
        int exposed = 0;
        for (const int v : members) {
          for (const int u : h.neighbors(v)) {
            if (sc.vertex_marked(u) &&
                sc.candidate(u) != static_cast<int>(i)) {
              ++exposed;
              break;
            }
          }
        }
        prop3_bad[static_cast<std::size_t>(i)] =
            exposed > std::max(3, static_cast<int>(members.size()) / 4);
      }
    });
    for (const char bad : prop3_bad) {
      if (bad) *property3_ok = false;
    }
    return attempts;
  }

  // Deterministic fallback: greedy sequential selection across cabals,
  // skipping vertices adjacent to previously chosen put-aside vertices.
  ++st.fallback_count;
  sc.begin_vertex_marks();  // marks = chosen so far
  auto& eligible = sc.tmp_ints;
  sets_out->reset(static_cast<int>(cabal_ids.size()));
  for (std::size_t i = 0; i < cabal_ids.size(); ++i) {
    eligible_members(st, cabal_ids[i], &eligible);
    auto& mine = sets_out->at(static_cast<int>(i));
    for (const int v : eligible) {
      bool clash = false;
      for (const int u : h.neighbors(v)) {
        if (sc.vertex_marked(u) &&
            st.dc.clique_of(u) != cabal_ids[i]) {
          clash = true;
          break;
        }
      }
      if (!clash) {
        mine.push_back(v);
        if (static_cast<int>(mine.size()) == r) break;
      }
    }
    // A cabal whose eligible inliers all clash keeps a short set: the
    // missing slots count as retries, and its other uncolored inliers
    // go through steps 4-5 as vertices outside the put-aside set.
    st.retry_count += r - static_cast<int>(mine.size());
    for (const int v : mine) sc.mark_vertex(v);
  }
  st.rt->charge(static_cast<int>(cabal_ids.size()), log_bits(st));
  return attempts;
}

namespace {

// TryFreeColors (Algorithm 8, step 2): direct hashed sampling from the
// clique palette when it still holds many free colors. Runs inside a
// parallel shard against the frozen coloring: decisions go to
// ws.adopted (vertex, color) and ws.kept (leftovers), applied by the
// sequential commit. Cross-cabal interference is impossible — put-aside
// sets are mutually independent, so no external neighbor of a put vertex
// is colored during this phase.
void try_free_colors(const State& st, int k, const std::vector<int>& put,
                     WorkerScratch& ws) {
  const auto& pal = st.palettes[static_cast<std::size_t>(k)];
  const int n_colors = pal.num_colors();
  const int window =
      std::min(st.params.ell_s(st.h().n()), pal.free_count(0, n_colors - 1));
  const int k_samples = st.params.donation_samples(st.h().n());
  if (window <= 0) {
    // Zero-bound guard: the palette ran out of free colors — drawing
    // next_below(0) is a contract violation (and UB if the check ever
    // compiles out), so skip the sampling entirely; the safety net takes
    // every put-aside vertex of this cabal.
    ws.kept.insert(ws.kept.end(), put.begin(), put.end());
    return;
  }
  // ID order simulates the collision-free-hash disambiguation among the
  // <= r put-aside vertices of K (paper uses h_K collision-free on the
  // ell_s smallest palette colors; cost charged below).
  auto& taken = ws.blocked;
  taken.rebind(n_colors);  // colors taken within K this step
  for (const int u : put) {
    int got = -1;
    // External conflicts only: put-aside sets are independent and K's
    // members don't use palette colors. One pass over ext(u) builds the
    // word-parallel used-color set; each sample then probes it in O(1)
    // instead of rescanning ext(u).
    ws.ext_used.rebind(n_colors);
    for (const int w : st.dc.info.ext(u)) {
      const int cw = st.phi.get(w);
      if (cw >= 0) ws.ext_used.add(cw);
    }
    Rng rng = st.trial_rng(static_cast<std::uint64_t>(u));
    for (int s = 0; s < k_samples && got < 0; ++s) {
      const int idx = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(window)));
      const int c = pal.select_free(0, n_colors - 1, idx);
      if (c < 0 || taken.contains(c)) continue;
      if (!ws.ext_used.contains(c)) got = c;
    }
    if (got >= 0) {
      taken.add(got);
      ws.adopted.emplace_back(u, got);
    } else {
      ws.kept.push_back(u);
    }
  }
}

// FindCandidateDonors + FindSafeDonors + DonateColors (Algorithms 9, 10
// and the donation of Fig. 4) for one cabal, planned against the frozen
// coloring inside a parallel shard. Put-aside/candidate sets of distinct
// cabals are mutually independent, so the frozen-state plan equals the
// sequential execution; ops land in ws.don_ops for the sequential commit.
//
// Algorithm 10 step 1: every candidate donor samples a uniform
// replacement from L(K) (via its private stream) and keeps it only if
// its own palette allows it. beta_{c,j} grouping and the j(c) choice are
// emulated by sorting (color * B + block, donor) pairs; the first block
// with >= s_min donors wins per color, and the first r colors win —
// both order-independent, matching the seed's map-based reduction.
// Returns true when every unmatched put-aside vertex got a donor;
// a partial plan is usable (unmatched vertices retry next attempt).
bool donate_for_cabal(const State& st, int k, const std::vector<int>& put,
                      const std::vector<int>& q_k, WorkerScratch& ws,
                      bool* got_plan) {
  *got_plan = false;
  auto& unmatched = ws.tmp;
  unmatched.clear();
  for (const int u : put) {
    if (!st.phi.colored(u)) unmatched.push_back(u);
  }
  if (unmatched.empty()) return true;
  const std::size_t ops_before = ws.don_ops.size();

  const auto& pal = st.palettes[static_cast<std::size_t>(k)];
  const int n_colors = pal.num_colors();
  const int free_total = pal.free_count(0, n_colors - 1);
  // Zero-bound guard: with no free colors (or no candidate donors) the
  // replacement draw below would be next_below(0); skip the whole scheme
  // and let the caller retry / fall back.
  if (free_total < 1 || q_k.empty()) return false;

  const int r = static_cast<int>(unmatched.size());
  const int b = st.params.block_size(st.h().n());
  const int ell_s = st.params.ell_s(st.h().n());
  // Calibrated per-donor-set floor (paper: beta > 2*ell_s): enough donors
  // that k samples w.h.p. dodge external conflicts.
  const int s_min = std::max(
      2, std::min(ell_s, static_cast<int>(q_k.size()) / std::max(1, 2 * r)));
  const std::int64_t num_blocks = n_colors / b + 2;

  auto& keyed = ws.keyed;  // (replacement * B + block, donor)
  keyed.clear();
  for (const int v : q_k) {
    const int idx = static_cast<int>(
        st.trial_rng(static_cast<std::uint64_t>(v))
            .next_below(static_cast<std::uint64_t>(free_total)));
    const int c = pal.select_free(0, n_colors - 1, idx);
    if (c < 0) continue;
    if (st.phi.neighbor_uses(st.h(), v, c)) continue;
    const int j = st.phi.get(v) / b;
    keyed.emplace_back(static_cast<std::int64_t>(c) * num_blocks + j, v);
  }
  std::sort(keyed.begin(), keyed.end());

  const int k_samples = st.params.donation_samples(st.h().n());
  auto& donors = ws.kept;
  int matched = 0;
  std::int64_t last_color = -1;
  for (std::size_t lo = 0; lo < keyed.size() && matched < r;) {
    std::size_t hi = lo;
    while (hi < keyed.size() && keyed[hi].first == keyed[lo].first) ++hi;
    const std::int64_t c = keyed[lo].first / num_blocks;
    if (c == last_color || static_cast<int>(hi - lo) < s_min) {
      lo = hi;
      continue;
    }
    last_color = c;  // j(c): first (= lowest) qualifying block per color
    *got_plan = true;
    // The matched donor set: lowest ell_s donor ids of the block.
    donors.clear();
    for (std::size_t i = lo; i < hi; ++i) donors.push_back(keyed[i].second);
    std::sort(donors.begin(), donors.end());
    if (static_cast<int>(donors.size()) > ell_s) {
      donors.resize(static_cast<std::size_t>(ell_s));
    }
    // DonateColors: sample k offers from the donor set for the matched
    // put-aside vertex; the offer list rides in one
    // O(log Delta + k log b)-bit message (Eq. 11).
    const int u = unmatched[static_cast<std::size_t>(matched)];
    ++matched;
    int donor = -1;
    // Word-parallel external-color set: each donor offer is one
    // contains() probe instead of an ext(u) rescan.
    ws.ext_used.rebind(n_colors);
    for (const int w : st.dc.info.ext(u)) {
      const int cw = st.phi.get(w);
      if (cw >= 0) ws.ext_used.add(cw);
    }
    Rng rng = st.trial_rng(static_cast<std::uint64_t>(u));
    for (int s = 0; s < k_samples && donor < 0; ++s) {
      const int pick = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(donors.size())));
      const int v = donors[static_cast<std::size_t>(pick)];
      const int c_don = st.phi.get(v);
      if (!ws.ext_used.contains(c_don)) donor = v;
    }
    if (donor >= 0) {
      ws.don_ops.push_back({donor, static_cast<int>(c), u,
                            st.phi.get(donor)});
    }
    lo = hi;
  }
  if (!*got_plan) return false;
  // Done iff every unmatched vertex was matched to a plan triple AND its
  // donor sampling succeeded (one op per colored vertex).
  return static_cast<int>(ws.don_ops.size() - ops_before) == r;
}

}  // namespace

DonationStats color_putaside_sets(State& st,
                                  const std::vector<int>& cabal_ids,
                                  std::span<const std::vector<int>> sets) {
  CCG_CHECK(cabal_ids.size() == sets.size());
  const auto& h = st.h();
  const int ell_s = st.params.ell_s(h.n());
  auto& sc = st.scratch;
  auto& par = *st.par;
  sc.ensure_vertices(h.n());
  DonationStats stats;
  // Orchestration lists live in the State-owned PhaseScratch; the caller
  // holds the put-aside sets themselves (ph.putsets in the pipeline).
  auto& leftovers = st.ph.put_left;
  leftovers.clear();

  // Step 1 (parallel in the model): palette occupancy decides the branch
  // per cabal.
  auto& free_path = st.ph.flags;
  free_path.assign(cabal_ids.size(), 0);
  for (std::size_t i = 0; i < cabal_ids.size(); ++i) {
    const auto& pal = st.palettes[static_cast<std::size_t>(cabal_ids[i])];
    free_path[i] =
        pal.free_count(0, pal.num_colors() - 1) >= ell_s ? 1 : 0;
  }
  st.rt->charge(1, log_bits(st));

  // Branch A (parallel shards over its cabals): TryFreeColors. Each shard
  // plans against the frozen coloring into its worker scratch; the commit
  // applies (vertex, color) adoptions in worker order, which equals cabal
  // order under the static shard bounds.
  auto& free_idx = st.ph.put_idx;
  free_idx.clear();
  for (std::size_t i = 0; i < cabal_ids.size(); ++i) {
    if (free_path[i]) free_idx.push_back(static_cast<int>(i));
  }
  if (!free_idx.empty()) {
    stats.free_path_cliques = static_cast<int>(free_idx.size());
    st.bump_trial_round();
    for (int w = 0; w < par.workers(); ++w) {
      st.wscratch.at(w).adopted.clear();
      st.wscratch.at(w).kept.clear();
    }
    par.shards(static_cast<std::int64_t>(free_idx.size()),
               [&](int w, std::int64_t b, std::int64_t e) {
      auto& ws = st.wscratch.at(w);
      for (std::int64_t j = b; j < e; ++j) {
        const auto i =
            static_cast<std::size_t>(free_idx[static_cast<std::size_t>(j)]);
        try_free_colors(st, cabal_ids[i], sets[i], ws);
      }
    });
    for (int w = 0; w < par.workers(); ++w) {
      for (const auto& [u, c] : st.wscratch.at(w).adopted) {
        st.assign(u, c);
        ++stats.free_colored;
      }
      auto& kept = st.wscratch.at(w).kept;
      leftovers.insert(leftovers.end(), kept.begin(), kept.end());
    }
    // Hash description + k hashed samples: O(log n) bits (Section 7.1).
    st.rt->charge(3, st.params.donation_samples(h.n()) * 8 + log_bits(st));
  }

  // Branch B: the donation scheme.
  // FindCandidateDonors runs synchronized across all donation cabals: the
  // activation sets must be simultaneous for the mutual-exclusion drop.
  auto& donation_idx = st.ph.put_idx2;
  donation_idx.clear();
  for (std::size_t i = 0; i < cabal_ids.size(); ++i) {
    if (!free_path[i]) donation_idx.push_back(static_cast<int>(i));
  }
  if (!donation_idx.empty()) {
    // Vertices of any put-aside set (all cabals) — excluded from Q^pre.
    // Vertex marks persist across the attempts below (nothing re-begins
    // them until the next put-aside computation).
    sc.begin_vertex_marks();
    for (const auto& s : sets) {
      for (const int v : s) sc.mark_vertex(v);
    }
    auto& actives = sc.tmp_ints;
    auto& attempt_failed = st.ph.flags2;
    auto& attempt_planned = st.ph.flags3;

    for (int attempt = 0; attempt < 5 && !donation_idx.empty(); ++attempt) {
      const auto live = static_cast<std::int64_t>(donation_idx.size());
      // Algorithm 9 steps 1-2 (parallel shards over cabals): Q^pre then
      // independent activation. The activation rate plays the role of the
      // paper's p = 50 ell_s^3 / b: small enough that an external neighbor
      // is rarely active too (p * e_v << 1), sized here from the measured
      // ẽ_K. Activation goes through the scratch candidate table (vertex
      // -> cabal index this attempt) via per-vertex streams.
      sc.begin_round();
      st.bump_trial_round();
      for (int w = 0; w < par.workers(); ++w) {
        st.wscratch.at(w).kept.clear();
      }
      par.shards(live, [&](int w, std::int64_t b, std::int64_t e) {
        auto& ws = st.wscratch.at(w);
        for (std::int64_t jj = b; jj < e; ++jj) {
          const auto i = static_cast<std::size_t>(
              donation_idx[static_cast<std::size_t>(jj)]);
          const int k = cabal_ids[i];
          const auto& pal = st.palettes[static_cast<std::size_t>(k)];
          const double e_k =
              st.dc.info.avg_ext_est[static_cast<std::size_t>(k)];
          const double p_active = std::min(0.4, 1.0 / (1.0 + e_k));
          for (const int v :
               st.dc.acd.members[static_cast<std::size_t>(k)]) {
            if (!st.phi.colored(v)) continue;
            if (pal.count(st.phi.get(v)) != 1) continue;  // unique colors
            bool exposed = false;
            for (const int u : st.dc.info.ext(v)) {
              if (sc.vertex_marked(u)) {
                exposed = true;
                break;
              }
            }
            if (exposed) continue;
            if (st.trial_rng(static_cast<std::uint64_t>(v))
                    .next_bool(p_active)) {
              sc.propose_at(v, static_cast<int>(i));
              ws.kept.push_back(v);
            }
          }
        }
      });
      actives.clear();
      for (int w = 0; w < par.workers(); ++w) {
        const auto& kept = st.wscratch.at(w).kept;
        actives.insert(actives.end(), kept.begin(), kept.end());
      }

      // Algorithm 9 step 3 (parallel shards over the active set): drop
      // active vertices with an active external neighbor (any other
      // cabal) — a pure read of the frozen candidate table.
      auto& verdicts = sc.verdicts;
      verdicts.resize(actives.size());
      par.shards(static_cast<std::int64_t>(actives.size()),
                 [&](int, std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          const int v = actives[static_cast<std::size_t>(i)];
          const int ci = sc.candidate(v);
          bool clash = false;
          for (const int u : h.neighbors(v)) {
            const int cu = sc.candidate(u);
            if (cu != TrialScratch::kNone && cu != ci) {
              clash = true;
              break;
            }
          }
          verdicts[static_cast<std::size_t>(i)] = clash ? -1 : ci;
        }
      });
      auto& q = st.ph.putq;
      q.reset(static_cast<int>(cabal_ids.size()));
      for (std::size_t i = 0; i < actives.size(); ++i) {
        if (verdicts[i] >= 0) {
          q.at(verdicts[i]).push_back(actives[i]);
        }
      }
      st.rt->charge(3, log_bits(st));

      // Algorithm 10 + donation (parallel shards over cabals): their
      // candidate/put-aside sets are mutually independent, so planning
      // against the frozen coloring equals the sequential execution.
      // Plans may be partial: unmatched put-aside vertices retry next
      // attempt. Ops are committed below in worker order.
      st.bump_trial_round();
      attempt_failed.assign(donation_idx.size(), 0);
      attempt_planned.assign(donation_idx.size(), 0);
      for (int w = 0; w < par.workers(); ++w) {
        st.wscratch.at(w).don_ops.clear();
      }
      par.shards(live, [&](int w, std::int64_t b, std::int64_t e) {
        auto& ws = st.wscratch.at(w);
        for (std::int64_t jj = b; jj < e; ++jj) {
          const auto i = static_cast<std::size_t>(
              donation_idx[static_cast<std::size_t>(jj)]);
          bool got_plan = false;
          const bool done =
              donate_for_cabal(st, cabal_ids[i], sets[i],
                               q.at(static_cast<int>(i)), ws, &got_plan);
          attempt_planned[static_cast<std::size_t>(jj)] = got_plan ? 1 : 0;
          attempt_failed[static_cast<std::size_t>(jj)] = done ? 0 : 1;
        }
      });
      // Commit (sequential): apply the donation transcripts.
      for (int w = 0; w < par.workers(); ++w) {
        for (const auto& op : st.wscratch.at(w).don_ops) {
          st.unassign(op.donor);
          st.assign(op.donor, op.c_recol);
          st.assign(op.u, op.c_don);
          ++stats.donated;
        }
      }
      if (attempt == 0) {
        for (const char planned : attempt_planned) {
          if (planned) ++stats.donation_path_cliques;
        }
      }
      const int b = st.params.block_size(h.n());
      st.rt->charge(4, st.params.donation_samples(h.n()) *
                               std::max(1, ceil_log2(static_cast<std::uint64_t>(
                                               std::max(2, b)))) +
                           log_bits(st));
      // Compact the worklist in place to the cabals that must retry.
      std::size_t kept = 0;
      for (std::size_t jj = 0; jj < donation_idx.size(); ++jj) {
        if (attempt_failed[jj]) donation_idx[kept++] = donation_idx[jj];
      }
      if (kept != 0) ++st.retry_count;
      donation_idx.resize(kept);
    }
    // Cabals still unfinished after the attempt budget: remaining
    // put-aside vertices go to the safety net.
    for (const int i : donation_idx) {
      for (const int u : sets[static_cast<std::size_t>(i)]) {
        if (!st.phi.colored(u)) leftovers.push_back(u);
      }
    }
  }

  if (!leftovers.empty()) {
    stats.fallbacks = fallback_finish(st, leftovers);
  }
  return stats;
}

}  // namespace ccg::color
