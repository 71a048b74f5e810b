#include "color/pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "color/matching.hpp"
#include "color/multicolor_trial.hpp"
#include "color/prep_mct.hpp"
#include "color/primitives.hpp"
#include "color/putaside.hpp"
#include "color/slack_generation.hpp"
#include "color/sync_trial.hpp"
#include "common/failpoint.hpp"
#include "common/mathutil.hpp"

namespace ccg::color {

void build_dense_context(State& st) {
  const int n = st.h().n();
  acd::AcdParams ap;
  ap.eps = st.params.eps;
  ap.t = st.params.fingerprint_t;
  ap.use_fingerprints = st.params.use_fingerprint_acd;
  ap.measure_bits = st.params.measure_bits;
  ap.par = st.par.get();
  // Decompose into State-owned storage: result arrays and the ACD working
  // set (buddy slot flags, packed oracle rows, union-find forests,
  // fingerprint samples) are grow-only members of State, so a warm run
  // reuses every buffer. Draws come from the shared stream space
  // (counter-based per-(round, entity) RNG), making the decomposition
  // bit-identical for every thread count.
  acd::compute_acd(*st.rt, ap, st.streams, &st.dc.acd, &st.acd_scratch);

  st.dc.ell = st.params.ell(n);
  acd::annotate_dense(*st.rt, st.dc.acd, st.dc.ell, st.params.fingerprint_t,
                      st.params.use_fingerprint_acd, st.streams,
                      st.par.get(), &st.dc.info, &st.acd_scratch);

  st.dc.reserved_cap = st.params.reserved_cap(st.delta());
  st.dc.reserved.resize(static_cast<std::size_t>(st.dc.acd.num_cliques));
  for (int k = 0; k < st.dc.acd.num_cliques; ++k) {
    const double base = std::max(
        st.dc.info.avg_ext_est[static_cast<std::size_t>(k)], st.dc.ell);
    st.dc.reserved[static_cast<std::size_t>(k)] = std::max(
        1, std::min(st.dc.reserved_cap,
                    static_cast<int>(std::lround(
                        st.params.reserved_factor * base))));
  }
  st.init_palettes();
}

void coloring_sparse(State& st) {
  // Phase input set lives in the State-owned orchestration scratch; the
  // in-place trial variants prune it as vertices get colored, so the whole
  // phase touches no per-call heap storage once warm.
  auto& sparse = st.ph.verts;
  sparse.clear();
  for (int v = 0; v < st.h().n(); ++v) {
    if (!st.dc.is_dense(v)) sparse.push_back(v);
  }
  if (sparse.empty()) return;
  const auto sampler = uniform_sampler(st.num_colors(), 0);
  try_color_rounds(st, &sparse, sampler, kTryColorActivation,
                   kTryColorRounds);
  MctOptions mct;
  const int slack = std::max(
      1, static_cast<int>(kGammaSg * st.delta() / 4));
  mct.slack = [slack](int) { return slack; };
  const auto set_sampler =
      st.params.use_representative_sets
          ? representative_set_sampler(st.num_colors(), 0,
                                       st.params.seed ^ 0xC5C5C5C5ULL)
          : uniform_set_sampler(st.num_colors(), 0);
  multicolor_trial(st, &sparse, set_sampler, mct);
  if (!sparse.empty()) fallback_finish(st, sparse);
}

namespace {

// Big-matching escape hatch (proofs of Props 4.6/4.7): when M_K >= 2 eps
// Delta every member has eps*Delta slack in the full color space; TryColor
// + MCT finishes K directly.
void color_easy_cliques(State& st, const std::vector<int>& easy) {
  if (easy.empty()) return;
  auto& s = st.ph.verts;
  s.clear();
  for (const int k : easy) st.append_uncolored_members(k, &s);
  if (s.empty()) return;
  const auto sampler = uniform_sampler(st.num_colors(), 0);
  try_color_rounds(st, &s, sampler, kTryColorActivation,
                   kTryColorRounds);
  MctOptions mct;
  const int slack =
      std::max(1, static_cast<int>(st.params.eps * st.delta()));
  mct.slack = [slack](int) { return slack; };
  multicolor_trial(st, &s, uniform_set_sampler(st.num_colors(), 0), mct);
  if (!s.empty()) fallback_finish(st, s);
}

// Outliers are colored while Omega(Delta) uncolored inliers give temporary
// slack; the candidate space excludes the reserved prefix (NC-3). Consumes
// *outliers in place (a PhaseScratch buffer at both call sites).
void color_outliers(State& st, std::vector<int>* outliers_ptr) {
  auto& outliers = *outliers_ptr;
  if (outliers.empty()) return;
  const auto sampler = [&st](int v, Rng& rng) -> int {
    const int r = st.dc.r_of(v);
    return r + static_cast<int>(rng.next_below(
                   static_cast<std::uint64_t>(st.num_colors() - r)));
  };
  try_color_rounds(st, &outliers, sampler, kTryColorActivation,
                   kTryColorRounds);
  MctOptions mct;
  const int slack = std::max(1, st.delta() / 4);
  mct.slack = [slack](int) { return slack; };
  const auto set_sampler = [&st](int v, int x, Rng& rng,
                                 std::vector<int>* out) {
    out->clear();
    const int r = st.dc.r_of(v);
    out->reserve(static_cast<std::size_t>(x));
    for (int i = 0; i < x; ++i) {
      out->push_back(r + static_cast<int>(rng.next_below(
                             static_cast<std::uint64_t>(
                                 st.num_colors() - r))));
    }
  };
  multicolor_trial(st, &outliers, set_sampler, mct);
  if (!outliers.empty()) fallback_finish(st, outliers);
}

// Matching size the clique measurably needs: M_K must dominate the x̃_v
// proxy (Eq. 3) for Eq. 4 to classify ~everyone as an inlier and for the
// clique palette to outlast |K| (Lemma 4.17). x̃_max is one tree-aggregated
// maximum (O(1) rounds, charged at the call site). The paper gets this
// from the Eq. 5 asymptotics (M_K >= 80 a_K or a_K << e_K); at laptop
// scale we check the measurable requirement directly.
int needed_matching(State& st, int k) {
  double x_max = 0;
  for (const int v : st.dc.acd.members[static_cast<std::size_t>(k)]) {
    if (!st.phi.colored(v)) x_max = std::max(x_max, st.x_proxy(v));
  }
  return std::max(0, 2 * static_cast<int>(std::ceil(x_max)) + 2);
}

// Non-cabal inlier test (Eq. 4): ẽ_v <= 20 ẽ_K and x_v <= M_K/2 + γ/8 ẽ_K.
bool is_noncabal_inlier(State& st, int v) {
  const int k = st.dc.clique_of(v);
  const double e_k = std::max(
      1.0, st.dc.info.avg_ext_est[static_cast<std::size_t>(k)]);
  if (st.dc.ext_est(v) > kInlierExtFactor * e_k) return false;
  const double m_k = st.palettes[static_cast<std::size_t>(k)].repeats();
  return st.x_proxy(v) <=
         m_k / 2.0 + kGammaSg / 8.0 * e_k;
}

}  // namespace

void coloring_noncabals(State& st) {
  // Orchestration sets live in the State-owned PhaseScratch: id lists and
  // split buckets reuse their high-water capacity, the per-clique inlier
  // and SCT candidate sets share the grow-only GroupLists pair.
  auto& ids = st.ph.ids;
  ids.clear();
  for (int k = 0; k < st.dc.acd.num_cliques; ++k) {
    if (!st.dc.info.is_cabal[static_cast<std::size_t>(k)]) ids.push_back(k);
  }
  if (ids.empty()) return;

  // Step 1: colorful matching everywhere (Lemma 4.9).
  auto& easy = st.ph.easy;
  auto& rest = st.ph.rest;
  easy.clear();
  rest.clear();
  {
    net::PhaseScope p(st.rt->ledger(), "4a-matching");
    const int target =
        std::max(1, static_cast<int>(2.2 * st.params.eps * st.delta()));
    colorful_matching_run(st, ids, target);
    // Cliques whose sampling matching is too small for their measured
    // x̃_max (sparse anti-edge regime) top up with the fingerprint
    // matching over their uncolored members. Cliques are vertex-disjoint,
    // so the executions are parallel: one batch, one charge. The batch
    // lists must not live in easy/rest, which are filled below.
    st.rt->charge(1, 32);  // x̃_max aggregation
    auto& topup = st.ph.fp_cliques;
    auto& topup_unc = st.ph.groups;
    topup.clear();
    for (const int k : ids) {
      if (st.palettes[static_cast<std::size_t>(k)].repeats() <
          needed_matching(st, k)) {
        topup.push_back(k);
      }
    }
    topup_unc.reset(static_cast<int>(topup.size()));
    for (std::size_t j = 0; j < topup.size(); ++j) {
      st.append_uncolored_members(topup[j],
                                  &topup_unc.at(static_cast<int>(j)));
    }
    auto& all_pairs = st.ph.pairs;
    all_pairs.clear();
    fingerprint_matching_batch(st, topup, &topup_unc, &all_pairs);
    if (!topup.empty()) fingerprint_matching_charge(st);
    if (!all_pairs.empty()) color_anti_matching(st, all_pairs);
    // Cliques whose matching is big enough get colored outright.
    const double two_eps_delta = 2.0 * st.params.eps * st.delta();
    for (const int k : ids) {
      if (st.palettes[static_cast<std::size_t>(k)].repeats() >=
          two_eps_delta) {
        easy.push_back(k);
      } else {
        rest.push_back(k);
      }
    }
  }
  {
    net::PhaseScope p(st.rt->ledger(), "4b-easy");
    color_easy_cliques(st, easy);
  }
  if (rest.empty()) return;

  // Step 2: outliers first (they enjoy temporary slack from inliers).
  auto& inliers_of = st.ph.groups;
  inliers_of.reset(static_cast<int>(rest.size()));
  {
    net::PhaseScope p(st.rt->ledger(), "4c-outliers");
    auto& outliers = st.ph.outliers;
    outliers.clear();
    for (std::size_t i = 0; i < rest.size(); ++i) {
      auto& unc = st.ph.unc;
      unc.clear();
      st.append_uncolored_members(rest[i], &unc);
      for (const int v : unc) {
        if (is_noncabal_inlier(st, v)) {
          inliers_of.at(static_cast<int>(i)).push_back(v);
        } else {
          outliers.push_back(v);
        }
      }
    }
    color_outliers(st, &outliers);
  }

  // Step 3: synchronized color trial on all but r_K uncolored inliers.
  {
    net::PhaseScope p(st.rt->ledger(), "4d-sct");
    auto& s_of = st.ph.groups2;
    s_of.reset(static_cast<int>(rest.size()));
    for (std::size_t i = 0; i < rest.size(); ++i) {
      auto& s = s_of.at(static_cast<int>(i));
      uncolored_of(st, inliers_of.at(static_cast<int>(i)), &s);
      const int r = st.dc.reserved[static_cast<std::size_t>(rest[i])];
      const int keep = std::max(0, static_cast<int>(s.size()) - r);
      std::sort(s.begin(), s.end());
      s.resize(static_cast<std::size_t>(keep));
    }
    synchronized_color_trial(st, rest, s_of.view(), nullptr);
  }

  // Step 4: Complete (Section 8).
  {
    net::PhaseScope p(st.rt->ledger(), "4e-complete");
    complete_noncabals(st, rest);
  }
}

void coloring_cabals(State& st) {
  auto& ids = st.ph.ids;
  ids.clear();
  for (int k = 0; k < st.dc.acd.num_cliques; ++k) {
    if (st.dc.info.is_cabal[static_cast<std::size_t>(k)]) ids.push_back(k);
  }
  if (ids.empty()) return;
  const auto& h = st.h();
  const int n = h.n();

  // Step 1: colorful matching; densest cabals switch to the fingerprint
  // algorithm when the sampling matching stays small (Prop 4.15).
  const int target =
      std::max(1, static_cast<int>(2.2 * st.params.eps * st.delta()));
  colorful_matching_run(st, ids, target);
  st.rt->charge(1, 32);  // x̃_max aggregation
  auto& redo = st.ph.fp_cliques;
  redo.clear();
  for (const int k : ids) {
    auto& pal = st.palettes[static_cast<std::size_t>(k)];
    if (pal.repeats() >= needed_matching(st, k)) continue;
    // Cancel the coloring in K (only the matching colored cabal vertices
    // so far) and run FingerprintMatching + pair coloring (Prop 4.15);
    // one batch across the (vertex-disjoint) cabals, charged once.
    redo.push_back(k);
    for (const int v : st.dc.acd.members[static_cast<std::size_t>(k)]) {
      if (st.phi.colored(v)) st.unassign(v);
    }
  }
  auto& all_pairs = st.ph.pairs;
  all_pairs.clear();
  fingerprint_matching_batch(st, redo, nullptr, &all_pairs);
  if (!redo.empty()) fingerprint_matching_charge(st);
  if (!all_pairs.empty()) color_anti_matching(st, all_pairs);

  auto& easy = st.ph.easy;
  auto& rest = st.ph.rest;
  easy.clear();
  rest.clear();
  const double two_eps_delta = 2.0 * st.params.eps * st.delta();
  for (const int k : ids) {
    if (st.palettes[static_cast<std::size_t>(k)].repeats() >=
        two_eps_delta) {
      easy.push_back(k);
    } else {
      rest.push_back(k);
    }
  }
  color_easy_cliques(st, easy);
  if (rest.empty()) return;

  // Step 2: outliers (cabal rule: high estimated external degree only).
  auto& outliers = st.ph.outliers;
  outliers.clear();
  for (const int k : rest) {
    const double e_k = std::max(
        1.0, st.dc.info.avg_ext_est[static_cast<std::size_t>(k)]);
    auto& unc = st.ph.unc;
    unc.clear();
    st.append_uncolored_members(k, &unc);
    for (const int v : unc) {
      if (st.dc.ext_est(v) > kInlierExtFactor * e_k) {
        outliers.push_back(v);
      }
    }
  }
  color_outliers(st, &outliers);

  // Step 3: put-aside sets (identical size across cabals; see
  // kPutAsideFactor for the calibrated |P_K| < r_K choice).
  const int r_reserved =
      st.dc.reserved[static_cast<std::size_t>(rest.front())];
  const int r = std::max(
      2, std::min(r_reserved,
                  static_cast<int>(std::lround(
                      kPutAsideFactor * st.dc.ell))));
  // Put-aside sets live in the State-owned grow-only scratch; they must
  // survive steps 4-5 (which claim ph.groups for S_K), so they get their
  // own GroupLists.
  auto& put_sets = st.ph.putsets;
  bool prop3_ok = true;
  compute_putaside(st, rest, r, &put_sets, &prop3_ok);

  // Step 4: synchronized color trial on uncolored inliers minus P_K.
  // Put-aside membership rides on the scratch vertex marks (one O(1)
  // epoch bump instead of an O(n) bitmap per cabal).
  auto& s_of = st.ph.groups;
  s_of.reset(static_cast<int>(rest.size()));
  auto& sc = st.scratch;
  sc.ensure_vertices(n);
  sc.begin_vertex_marks();
  for (const auto& s : put_sets.view()) {
    for (const int v : s) sc.mark_vertex(v);
  }
  for (std::size_t i = 0; i < rest.size(); ++i) {
    auto& unc = st.ph.unc;
    unc.clear();
    st.append_uncolored_members(rest[i], &unc);
    for (const int v : unc) {
      if (!sc.vertex_marked(v)) s_of.at(static_cast<int>(i)).push_back(v);
    }
  }
  synchronized_color_trial(st, rest, s_of.view(), nullptr);

  // Step 5: MultiColorTrial on the reserved prefix for the SCT leftovers.
  auto& leftover = st.ph.verts;
  leftover.clear();
  for (int i = 0; i < s_of.groups(); ++i) {
    for (const int v : s_of.at(i)) {
      if (!st.phi.colored(v)) leftover.push_back(v);
    }
  }
  if (!leftover.empty()) {
    MctOptions mct;
    mct.slack = [&st](int v) {
      // Reserved colors lost only to external neighbors (Lemma 8.5);
      // ẽ_v is the vertex's own estimate.
      return std::max(
          1, static_cast<int>(st.dc.r_of(v) - st.dc.ext_est(v) - 1));
    };
    multicolor_trial(st, &leftover, reserved_set_sampler(st), mct);
    if (!leftover.empty()) fallback_finish(st, leftover);
  }

  // Step 6: color the put-aside sets via free colors / donation (Sec. 7).
  color_putaside_sets(st, rest, put_sets.view());
}

void reset_result(Result* res) {
  res->colors.clear();
  res->phases.clear();
  res->num_colors = 0;
  res->h_rounds = 0;
  res->g_rounds = 0;
  res->max_message_bits = 0;
  res->max_bits_per_link_round = 0;
  res->fallback_count = 0;
  res->retry_count = 0;
  res->num_cliques = 0;
  res->num_cabals = 0;
  res->sparse_count = 0;
  res->dilation = 0;
}

void finalize_result_into(const State& st, bool copy_colors, Result* res) {
  reset_result(res);
  res->num_colors = st.num_colors();
  const auto& ledger = st.rt->ledger();
  res->h_rounds = ledger.h_rounds();
  res->g_rounds = ledger.g_rounds();
  res->max_message_bits = ledger.max_message_bits();
  res->max_bits_per_link_round = ledger.max_bits_per_link_round();
  res->fallback_count = st.fallback_count;
  res->retry_count = st.retry_count;
  res->num_cliques = st.dc.acd.num_cliques;
  for (int k = 0; k < st.dc.acd.num_cliques; ++k) {
    if (st.dc.info.is_cabal[static_cast<std::size_t>(k)]) {
      ++res->num_cabals;
    }
  }
  for (int v = 0; v < st.h().n(); ++v) {
    if (!st.dc.is_dense(v)) ++res->sparse_count;
  }
  res->dilation = st.rt->cg().dilation();
  if (copy_colors) {
    res->colors = st.phi.vec();
    res->phases = ledger.phases();
  }
}

Result finalize_result(State& st) {
  Result res;
  finalize_result_into(st, /*copy_colors=*/true, &res);
  return res;
}

void run_high_degree(State& st) {
  auto& ledger = st.rt->ledger();
  // Each phase boundary is a cooperative cancellation point and a named
  // fault-injection site; the failpoint hit is tagged with the run's seed
  // so a fault can be pinned to one specific (job, attempt) regardless of
  // scheduling (see common/failpoint.hpp).
  {
    st.check_cancel();
    CCG_FAILPOINT_ARG("pipeline.phase.acd", st.params.seed);
    net::PhaseScope p(ledger, "1-acd");
    build_dense_context(st);
  }
  {
    st.check_cancel();
    CCG_FAILPOINT_ARG("pipeline.phase.slackgen", st.params.seed);
    net::PhaseScope p(ledger, "2-slack-generation");
    slack_generation(st);
  }
  {
    st.check_cancel();
    CCG_FAILPOINT_ARG("pipeline.phase.sparse", st.params.seed);
    net::PhaseScope p(ledger, "3-sparse");
    coloring_sparse(st);
  }
  {
    st.check_cancel();
    CCG_FAILPOINT_ARG("pipeline.phase.noncabals", st.params.seed);
    net::PhaseScope p(ledger, "4-noncabals");
    coloring_noncabals(st);
  }
  {
    st.check_cancel();
    CCG_FAILPOINT_ARG("pipeline.phase.cabals", st.params.seed);
    net::PhaseScope p(ledger, "5-cabals");
    coloring_cabals(st);
  }
  st.check_cancel();
  // Safety net: should be a no-op.
  auto& all = st.ph.all;
  all.resize(static_cast<std::size_t>(st.h().n()));
  for (int v = 0; v < st.h().n(); ++v) all[static_cast<std::size_t>(v)] = v;
  fallback_finish(st, all);

  cluster::check_proper_total(st.h(), st.phi.vec(), st.num_colors(),
                              st.par.get());
}

Result color_high_degree(cluster::Runtime& rt, const Params& params) {
  State st(rt, params);
  run_high_degree(st);
  return finalize_result(st);
}

}  // namespace ccg::color
