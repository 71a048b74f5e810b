#include "lowdeg/lowdeg.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "color/color_set.hpp"
#include "color/matching.hpp"
#include "color/primitives.hpp"
#include "color/relays.hpp"
#include "color/slack_generation.hpp"
#include "common/failpoint.hpp"
#include "common/mathutil.hpp"
#include "gk/gk.hpp"

namespace ccg::lowdeg {

using color::State;
using color::VertexLists;

namespace {

int log_bits(const State& st) {
  return 2 * ceil_log2(static_cast<std::uint64_t>(
                 std::max(2, st.h().n())));
}

int loglog(int n) {
  return std::max(1, static_cast<int>(std::ceil(
                         std::log2(std::max(2.0, std::log2(std::max(
                                                     4, n)))))));
}

// One pass over N(v) fills `used` with the colors of v's colored
// neighbors — a word-parallel scratch set (per-worker in parallel passes,
// worker 0 otherwise) that callers may keep probing while phi is
// unchanged.
void load_used_colors(const State& st, int v, color::ColorSet& used) {
  used.rebind(st.num_colors());
  for (const int u : st.h().neighbors(v)) {
    const int cu = st.phi.get(u);
    if (cu >= 0) used.add(cu);
  }
}

// Prune v's learned list to its live entries: colors still free among
// colored neighbors (list freshness is maintained with O(|list|)-bit
// bitmaps each round; |list| <= Delta+1 = poly(log n) here). In place,
// because deadness is permanent here: within the lists' lifetime phi
// only grows (the cabal-redo unassigns happen before any list is
// built), so a pruned entry could never come back. Rows are per-vertex
// disjoint, so parallel shards prune their own vertices race-free.
void prune_dead(const State& st, int v, VertexLists* lists,
                color::ColorSet& used) {
  load_used_colors(st, v, used);
  lists->filter(v, [&used](int c) { return !used.contains(c); });
}

// Enumerate v's entire palette into row v: a (Delta+1)-bit bitmap
// aggregation — cheap in the low-degree regime; this is the paper's
// "learn the whole clique palette / all used colors" step. `used` must
// already hold N(v)'s colors (the caller just built it via prune_dead /
// load_used_colors with phi unchanged since). Free colors come out in
// increasing order, exactly like the former per-color neighbor_uses scan.
// Call sites charge one batch per super-step via charge_palette_round.
void enumerate_free_into(int v, const color::ColorSet& used,
                         VertexLists* lists) {
  lists->clear(v);
  for (int c = used.first_free(); c >= 0; c = used.next_free(c + 1)) {
    lists->push(v, c);
  }
}

void charge_palette_round(State& st) {
  st.rt->charge(1, st.num_colors());  // the ledger chunks > B payloads
}

// LearnColors (Algorithm 15, step 2): sample-and-test until every vertex
// of S holds uncolored-degree+1 free colors. src draws candidates from the
// vertex's legitimate color source. Batches run as parallel shards: each
// vertex draws from its private counter-based stream (one bump per batch)
// and mutates only its own list row, so the learned lists are
// bit-identical for every worker count.
void learn_colors(State& st, const std::vector<int>& S,
                  const color::ColorSampler& src, VertexLists& lists) {
  const auto& h = st.h();
  auto& par = *st.par;
  const int max_batches = 2 * loglog(h.n()) + 4;
  for (int batch = 0; batch < max_batches; ++batch) {
    st.bump_trial_round();
    par.reset_acc(0);  // 1 = some shard still has an unsatisfied vertex
    par.shards(static_cast<std::int64_t>(S.size()),
               [&](int w, std::int64_t b, std::int64_t e) {
      auto& used = st.wscratch.at(w).blocked;
      for (std::int64_t i = b; i < e; ++i) {
        const int v = S[static_cast<std::size_t>(i)];
        if (st.phi.colored(v)) continue;
        prune_dead(st, v, &lists, used);
        const int need =
            st.phi.uncolored_degree(h, v) + 1 - lists.size(v);
        if (need <= 0) continue;
        par.acc(w) = 1;
        const int tries = 2 * need + 2;
        Rng rng = st.trial_rng(static_cast<std::uint64_t>(v));
        for (int t = 0; t < tries; ++t) {
          const int c = src(v, rng);
          if (c < 0) continue;
          // `used` still holds N(v)'s colors (no assigns since the
          // prune), so the freshness test is one word probe.
          if (used.contains(c)) continue;
          bool dup = false;
          for (int j = 0; j < lists.size(v); ++j) {
            if (lists.get(v, j) == c) {
              dup = true;
              break;
            }
          }
          if (!dup) lists.push(v, c);
        }
      }
    });
    st.rt->charge(1, log_bits(st));
    if (par.acc_max() == 0) return;
  }
  // Stragglers learn their palette exhaustively (legitimate and cheap at
  // low degree); one parallel bitmap round for the whole batch.
  par.reset_acc(0);
  par.shards(static_cast<std::int64_t>(S.size()),
             [&](int w, std::int64_t b, std::int64_t e) {
    auto& used = st.wscratch.at(w).blocked;
    for (std::int64_t i = b; i < e; ++i) {
      const int v = S[static_cast<std::size_t>(i)];
      if (st.phi.colored(v)) continue;
      prune_dead(st, v, &lists, used);
      if (lists.size(v) < st.phi.uncolored_degree(h, v) + 1) {
        enumerate_free_into(v, used, &lists);
        par.acc(w) = 1;
      }
    }
  });
  if (par.acc_max() == 1) charge_palette_round(st);
}

// Random trials from the learned lists: used both for Shattering
// (O(loglog n) rounds) and for finishing the shattered components
// (randomized (deg+1)-list coloring).
// Prunes *S in place down to the vertices still uncolored after `rounds`.
void list_trial_rounds(State& st, std::vector<int>* S_ptr,
                       VertexLists& lists, int rounds, double activation) {
  auto& S = *S_ptr;
  auto& par = *st.par;
  // Entry prune (parallel shards, per-worker scratch sets): bring every
  // list to exactly its live set. phi is frozen during a round's
  // sampling phase and each round re-prunes after its commit, so the
  // sampler below draws straight from the list — same live set, same
  // draw as the former filter-per-call, with no per-call allocation.
  par.shards(static_cast<std::int64_t>(S.size()),
             [&](int w, std::int64_t b, std::int64_t e) {
    auto& used = st.wscratch.at(w).blocked;
    for (std::int64_t i = b; i < e; ++i) {
      prune_dead(st, S[static_cast<std::size_t>(i)], &lists, used);
    }
  });
  const auto sampler = [&lists](int v, Rng& rng) -> int {
    const int len = lists.size(v);
    if (len == 0) return -1;
    return lists.get(v, static_cast<int>(rng.next_below(
                            static_cast<std::uint64_t>(len))));
  };
  for (int r = 0; r < rounds && !S.empty(); ++r) {
    color::try_color_round(st, S, sampler, activation);
    color::prune_colored(st, &S);
    // Re-prune against the post-commit coloring and replenish dead lists
    // (can only happen when neighbors ate every learned color; bounded
    // by the low-degree palette enumeration). Parallel: rows are
    // per-vertex disjoint, the replenish flag reduces over the per-worker
    // accumulator slots. One bitmap round charged per trial round when
    // any list replenished.
    par.reset_acc(0);
    par.shards(static_cast<std::int64_t>(S.size()),
               [&](int w, std::int64_t b, std::int64_t e) {
      auto& used = st.wscratch.at(w).blocked;
      for (std::int64_t i = b; i < e; ++i) {
        const int v = S[static_cast<std::size_t>(i)];
        prune_dead(st, v, &lists, used);
        if (lists.size(v) == 0) {
          enumerate_free_into(v, used, &lists);
          par.acc(w) = 1;
        }
      }
    });
    if (par.acc_max() == 1) charge_palette_round(st);
  }
}

int next_prime(int x) {
  const auto is_prime = [](int p) {
    if (p < 2) return false;
    for (int d = 2; d * d <= p; ++d) {
      if (p % d == 0) return false;
    }
    return true;
  };
  while (!is_prime(x)) ++x;
  return x;
}

// Deterministic finisher for the shattered components (ablation for the
// randomized finisher): the classic Linial color reduction.
//
//  1. Component-local ids 1..N via BFS enumeration (Lemma 3.3).
//  2. Repeat: view each current color as a degree-d polynomial over
//     GF(q) (coefficients = base-q digits), with the smallest d such that
//     q^(d+1) >= C for q = next_prime(Delta_F * d + 2). Distinct
//     polynomials agree on <= d points, so among q > Delta_F * d
//     evaluation points some x* avoids every neighbor; the vertex
//     re-colors to (x*, f(x*)). Colors shrink from C to q^2, reaching
//     O(Delta_F^2) in O(log* N) rounds of O(log n)-bit exchanges.
//  3. Sweep the final classes in order: each class is an independent set,
//     so its members simultaneously take any live learned-list color.
//
// Deterministic O(log* N + Delta_F^2) rounds — slower than the paper's
// Lemma 9.1 charge but with its w.h.p.-free guarantee shape.
void deterministic_finish(State& st, const std::vector<int>& S,
                          VertexLists& lists) {
  const auto& h = st.h();
  if (S.empty()) return;
  std::vector<char> in_s(static_cast<std::size_t>(h.n()), 0);
  for (const int v : S) in_s[static_cast<std::size_t>(v)] = 1;
  // Active degree inside the uncolored subgraph.
  int delta_f = 0;
  std::unordered_map<int, int> lin;  // Linial color per vertex
  {
    int next_id = 0;
    for (const int v : S) lin[v] = next_id++;
    for (const int v : S) {
      int d = 0;
      for (const int u : h.neighbors(v)) {
        if (in_s[static_cast<std::size_t>(u)]) ++d;
      }
      delta_f = std::max(delta_f, d);
    }
  }
  st.rt->charge(3, log_bits(st));  // component enumeration

  std::int64_t num_colors = static_cast<int>(S.size());
  for (int iter = 0; iter < 64; ++iter) {
    // Smallest polynomial degree d with q^(d+1) >= C for
    // q = next_prime(Delta_F * d + 1); distinct degree-d polynomials
    // agree on <= d points, so Delta_F * d < q evaluation points always
    // leave a conflict-free one.
    int d = 1, q = 2;
    for (;; ++d) {
      q = next_prime(delta_f * d + 2);
      std::int64_t reach = 1;
      for (int e = 0; e <= d && reach < num_colors; ++e) reach *= q;
      if (reach >= num_colors) break;
      CCG_CHECK(d < 40);
    }
    if (static_cast<std::int64_t>(q) * q >= num_colors) break;  // stalled

    const auto eval_poly = [q, d](int c, int x) {
      // Coefficients = base-q digits of the color.
      int fx = 0, pow_x = 1;
      for (int e = 0; e <= d; ++e) {
        fx = (fx + (c % q) * pow_x) % q;
        c /= q;
        pow_x = (pow_x * x) % q;
      }
      return fx;
    };
    std::unordered_map<int, int> next;
    for (const int v : S) {
      for (int x = 0; x < q; ++x) {
        const int fx = eval_poly(lin[v], x);
        bool clash = false;
        for (const int u : h.neighbors(v)) {
          if (in_s[static_cast<std::size_t>(u)] &&
              eval_poly(lin[u], x) == fx) {
            clash = true;
            break;
          }
        }
        if (!clash) {
          next[v] = x * q + fx;
          break;
        }
      }
      CCG_CHECK_MSG(next.count(v), "Linial step found no free point");
    }
    lin = std::move(next);
    num_colors = static_cast<std::int64_t>(q) * q;
    st.rt->charge(1, log_bits(st));
  }

  // Class sweep: classes are independent sets; one round per class.
  // Assigns happen between visits, so each vertex re-prunes its list at
  // visit time (prune-in-place stays exact: deadness is monotone here).
  auto& used = st.wscratch.at(0).blocked;
  for (int c = 0; c < num_colors; ++c) {
    bool any = false;
    for (const int v : S) {
      if (st.phi.colored(v) || lin[v] != c) continue;
      any = true;
      prune_dead(st, v, &lists, used);
      if (lists.size(v) == 0) {
        enumerate_free_into(v, used, &lists);
        CCG_CHECK_MSG(lists.size(v) > 0, "no free color in class sweep");
      }
      st.assign(v, lists.get(v, 0));
    }
    if (any) st.rt->charge(1, log_bits(st));
  }
}

// Boundary shim for the (non-default) Ghaffari-Kuhn finisher: gk's public
// API takes the lists as a vector-of-vectors it may mutate, so the rows of
// the shattered set are materialized here. The copy is discarded after the
// call — the components are fully colored on return — and the default
// randomized finisher never leaves the flat reusable matrix.
std::vector<std::vector<int>> materialize_rows(const State& st,
                                               const std::vector<int>& S,
                                               const VertexLists& lists) {
  std::vector<std::vector<int>> out(static_cast<std::size_t>(st.h().n()));
  for (const int v : S) {
    const auto row = lists.of(v);
    out[static_cast<std::size_t>(v)].assign(row.begin(), row.end());
  }
  return out;
}

// Algorithm 15: DegreeReduction -> LearnColors -> Shattering ->
// SmallInstanceColoring for one vertex class with its color source.
// Consumes *S in place (a PhaseScratch buffer at every call site) and
// claims the State-owned learn/shatter list matrix for its whole run.
void reduce_learn_shatter_finish(State& st, std::vector<int>* S_ptr,
                                 const color::ColorSampler& reduce_src,
                                 const color::ColorSampler& learn_src) {
  auto& S = *S_ptr;
  if (S.empty()) return;
  const int n = st.h().n();
  const int ll = loglog(n);

  // Degree reduction: O(loglog n) plain TryColor rounds.
  color::try_color_rounds(st, &S, reduce_src,
                          color::kTryColorActivation, 2 * ll + 2);
  if (S.empty()) return;

  // Learn deg+1 colors, shatter, finish. The list matrix is grow-only
  // State scratch: rebind zeroes the row lengths and keeps the storage.
  auto& lists = st.ph.lists;
  lists.rebind(n, st.num_colors());
  learn_colors(st, S, learn_src, lists);
  list_trial_rounds(st, &S, lists, 2 * ll + 2, 0.8);
  switch (st.params.finisher) {
    case color::Params::Finisher::kLinial:
      deterministic_finish(st, S, lists);
      color::prune_colored(st, &S);
      break;
    case color::Params::Finisher::kGhaffariKuhn:
      if (!S.empty()) {
        // Top lists back up to deg+1 (shattering may have consumed the
        // surplus) before handing over to Lemma 9.1.
        learn_colors(st, S, learn_src, lists);
        auto rows = materialize_rows(st, S, lists);
        gk::list_color_components(st, S, rows);
        S.clear();
      }
      break;
    case color::Params::Finisher::kRandomizedList: {
      // Randomized finisher: list coloring until the shattered components
      // die out; observed O(log N) rounds for N = poly(log n) components.
      const int finish_cap = 8 * ceil_log2(static_cast<std::uint64_t>(
                                     std::max(4, n))) +
                             16;
      list_trial_rounds(st, &S, lists, finish_cap, 0.9);
      break;
    }
  }
  if (!S.empty()) color::fallback_finish(st, S);
}

}  // namespace

void run_low_degree(State& st) {
  cluster::Runtime& rt = *st.rt;
  const int n = rt.h().n();
  const int delta = rt.delta();
  const int logn = ceil_log2(static_cast<std::uint64_t>(std::max(2, n)));

  if (delta + 1 <= 4 * logn) {
    // ---- Logarithmic regime (Algorithm 12): palettes are bitmaps. ----
    st.check_cancel();
    CCG_FAILPOINT_ARG("lowdeg.phase.logarithmic", st.params.seed);
    net::PhaseScope p(rt.ledger(), "lowdeg-logarithmic");
    auto& all = st.ph.verts;
    all.resize(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
    auto& lists = st.ph.lists;
    lists.rebind(n, st.num_colors());
    // Initial palette enumeration, sharded: rows are per-vertex disjoint.
    st.par->shards(static_cast<std::int64_t>(n),
                   [&](int w, std::int64_t b, std::int64_t e) {
      auto& used = st.wscratch.at(w).blocked;
      for (std::int64_t v = b; v < e; ++v) {
        load_used_colors(st, static_cast<int>(v), used);
        enumerate_free_into(static_cast<int>(v), used, &lists);
      }
    });
    charge_palette_round(st);  // all vertices aggregate in parallel
    list_trial_rounds(st, &all, lists, 2 * loglog(n) + 2, 0.8);
    auto& left = all;
    switch (st.params.finisher) {
      case color::Params::Finisher::kLinial:
        deterministic_finish(st, left, lists);
        color::prune_colored(st, &left);
        break;
      case color::Params::Finisher::kGhaffariKuhn:
        if (!left.empty()) {
          auto& used = st.wscratch.at(0).blocked;
          for (const int v : left) {
            load_used_colors(st, v, used);
            enumerate_free_into(v, used, &lists);
          }
          charge_palette_round(st);
          auto rows = materialize_rows(st, left, lists);
          gk::list_color_components(st, left, rows);
          left.clear();
        }
        break;
      case color::Params::Finisher::kRandomizedList: {
        const int finish_cap = 8 * logn + 16;
        list_trial_rounds(st, &left, lists, finish_cap, 0.9);
        break;
      }
    }
    if (!left.empty()) color::fallback_finish(st, left);
  } else {
    // ---- Polylogarithmic regime (Algorithms 13/14/15). ----
    // Phase boundaries double as cancellation points and seed-tagged
    // failpoints, mirroring color::run_high_degree.
    {
      st.check_cancel();
      CCG_FAILPOINT_ARG("lowdeg.phase.acd", st.params.seed);
      net::PhaseScope p(rt.ledger(), "lowdeg-acd");
      color::build_dense_context(st);
      // Section 9.2: the cabal threshold moves to Theta(log n) and no
      // colors are reserved in the low-degree regime.
      st.dc.ell = logn;
      for (int k = 0; k < st.dc.acd.num_cliques; ++k) {
        st.dc.info.is_cabal[static_cast<std::size_t>(k)] =
            st.dc.info.avg_ext_est[static_cast<std::size_t>(k)] <
            st.dc.ell;
        st.dc.reserved[static_cast<std::size_t>(k)] = 0;
      }
      st.dc.reserved_cap = 0;
    }
    {
      st.check_cancel();
      CCG_FAILPOINT_ARG("lowdeg.phase.slackgen", st.params.seed);
      net::PhaseScope p(rt.ledger(), "lowdeg-slackgen");
      color::slack_generation(st);
    }
    const auto uniform = color::uniform_sampler(st.num_colors(), 0);
    // Every r_K is 0 here, so this draws from the whole palette L(K_v).
    const auto palette = color::clique_palette_sampler(st);
    {
      st.check_cancel();
      CCG_FAILPOINT_ARG("lowdeg.phase.sparse", st.params.seed);
      net::PhaseScope p(rt.ledger(), "lowdeg-sparse");
      auto& sparse = st.ph.verts;
      sparse.clear();
      for (int v = 0; v < n; ++v) {
        if (!st.dc.is_dense(v)) sparse.push_back(v);
      }
      reduce_learn_shatter_finish(st, &sparse, uniform, uniform);
    }
    {
      st.check_cancel();
      CCG_FAILPOINT_ARG("lowdeg.phase.noncabals", st.params.seed);
      net::PhaseScope p(rt.ledger(), "lowdeg-noncabals");
      auto& ids = st.ph.ids;
      ids.clear();
      for (int k = 0; k < st.dc.acd.num_cliques; ++k) {
        if (!st.dc.info.is_cabal[static_cast<std::size_t>(k)]) {
          ids.push_back(k);
        }
      }
      if (!ids.empty()) {
        const int target = std::max(
            1, static_cast<int>(2.2 * st.params.eps * delta));
        color::colorful_matching_run(st, ids, target);
        auto& outliers = st.ph.outliers;
        auto& inliers = st.ph.sel;
        outliers.clear();
        inliers.clear();
        for (const int k : ids) {
          const double e_k = std::max(
              1.0, st.dc.info.avg_ext_est[static_cast<std::size_t>(k)]);
          auto& unc = st.ph.unc;
          unc.clear();
          st.append_uncolored_members(k, &unc);
          for (const int v : unc) {
            if (st.dc.ext_est(v) > color::kInlierExtFactor * e_k) {
              outliers.push_back(v);
            } else {
              inliers.push_back(v);
            }
          }
        }
        reduce_learn_shatter_finish(st, &outliers, uniform, uniform);
        reduce_learn_shatter_finish(st, &inliers, palette, palette);
      }
    }
    {
      st.check_cancel();
      CCG_FAILPOINT_ARG("lowdeg.phase.cabals", st.params.seed);
      net::PhaseScope p(rt.ledger(), "lowdeg-cabals");
      auto& ids = st.ph.ids;
      ids.clear();
      for (int k = 0; k < st.dc.acd.num_cliques; ++k) {
        if (st.dc.info.is_cabal[static_cast<std::size_t>(k)]) {
          ids.push_back(k);
        }
      }
      if (!ids.empty()) {
        const int target = std::max(
            1, static_cast<int>(2.2 * st.params.eps * delta));
        color::colorful_matching_run(st, ids, target);
        const int small_threshold = std::max(2, logn / 2);
        auto& all_pairs = st.ph.pairs;
        all_pairs.clear();
        bool any_redo = false;
        int relay_rounds = 0;
        for (const int k : ids) {
          auto& pal = st.palettes[static_cast<std::size_t>(k)];
          if (pal.repeats() >= small_threshold) continue;
          any_redo = true;
          for (const int v :
               st.dc.acd.members[static_cast<std::size_t>(k)]) {
            if (st.phi.colored(v)) st.unassign(v);
          }
          // Lemma 9.2 relays substitute for the random groups (Delta may
          // be well below log^2 n here); the fingerprint matching itself
          // is unchanged. Parallel across cabals, charged once per batch.
          // Pairs land in the reused per-cabal scratch (ph.pairs2) so a
          // warm run allocates nothing here.
          auto& pairs = st.ph.pairs2;
          pairs.clear();
          color::fingerprint_matching_into(st, k, nullptr, /*charge=*/false,
                                           &pairs);
          if (pairs.empty()) continue;
          const auto relays =
              color::find_relays(st, k, pairs, /*charge=*/false);
          relay_rounds = std::max(relay_rounds, relays.proposal_rounds);
          // Only relayed pairs join the anti-matching; an unmatched pair's
          // endpoints stay uncolored and finish with the rest of the cabal.
          for (std::size_t i = 0; i < pairs.size(); ++i) {
            if (relays.relay[i] >= 0) {
              all_pairs.push_back(pairs[i]);
            } else {
              ++st.retry_count;
            }
          }
        }
        if (any_redo) {
          color::fingerprint_matching_charge(st);
          color::find_relays_charge(st, relay_rounds);
        }
        if (!all_pairs.empty()) color::color_anti_matching(st, all_pairs);
        auto& rest = st.ph.rest;
        rest.clear();
        for (const int k : ids) st.append_uncolored_members(k, &rest);
        reduce_learn_shatter_finish(st, &rest, palette, palette);
      }
    }
  }

  auto& all = st.ph.all;
  all.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
  color::fallback_finish(st, all);
  cluster::check_proper_total(st.h(), st.phi.vec(), st.num_colors(),
                              st.par.get());
}

color::Result color_low_degree(cluster::Runtime& rt,
                               const color::Params& params) {
  State st(rt, params);
  run_low_degree(st);
  return color::finalize_result(st);
}

color::Result color_cluster_graph(cluster::Runtime& rt,
                                  const color::Params& params) {
  if (rt.delta() >= params.delta_low(rt.h().n())) {
    return color::color_high_degree(rt, params);
  }
  return color_low_degree(rt, params);
}

}  // namespace ccg::lowdeg
