#include "color/prep_mct.hpp"

#include <algorithm>

#include "color/multicolor_trial.hpp"
#include "color/primitives.hpp"
#include "common/mathutil.hpp"

namespace ccg::color {

double z_estimate(const State& st, int v) {
  const int k = st.dc.clique_of(v);
  CCG_CHECK(k >= 0);
  const auto& pal = st.palettes[static_cast<std::size_t>(k)];
  const int r_v = st.dc.reserved[static_cast<std::size_t>(k)];
  const int delta = st.delta();

  // Members of K colored with non-reserved colors: exact via aggregation.
  // Reserved colors are untouched inside K at this stage, so this is the
  // full colored count.
  const int mu_k = pal.colored_total();

  // External neighbors colored with non-reserved colors: the paper
  // estimates this by fingerprinting (Claim 8.3); the simulation computes
  // it exactly over ext(v) = N(v) \ K and the caller charges the
  // fingerprint round.
  int mu_e = 0;
  for (const int u : st.dc.info.ext(v)) {
    if (st.phi.colored(u) && st.phi.get(u) >= r_v) ++mu_e;
  }

  // Computable reuse-slack lower bound standing in for
  // gamma_{4.11} e_K + 40 a_K + x_v (Eq. 6), using Eq. 5's conversion
  // 80 a_K <= M_K + gamma e_K / 8 to eliminate the unknowable a_K.
  const double e_k = st.dc.info.avg_ext_est[static_cast<std::size_t>(k)];
  const double reuse = kGammaReuse * e_k +
                       pal.repeats() / 2.0 + st.x_proxy(v);

  return (delta + 1 - r_v) - mu_k - mu_e + reuse;
}

namespace {

// Sharded z̃-threshold split over the still-uncolored vertices of `from`:
// vertices with z_estimate > thr (or >= when `ge`) land in *sel, the rest
// (when `rest` is non-null) in *rest, both in `from` order. z_estimate
// reads only the frozen coloring/palettes, so shards evaluate it
// independently; worker-order concatenation of the shard-local kept lists
// reproduces the sequential order for every thread count.
void select_by_z(State& st, const std::vector<int>& from, double factor,
                 bool ge, std::vector<int>* sel, std::vector<int>* rest) {
  auto& par = *st.par;
  for (int w = 0; w < par.workers(); ++w) {
    st.wscratch.at(w).kept.clear();
    st.wscratch.at(w).kept2.clear();
  }
  const auto e_k_of = [&st](int v) {
    return st.dc.info.avg_ext_est[static_cast<std::size_t>(
        st.dc.clique_of(v))];
  };
  par.shards(static_cast<std::int64_t>(from.size()),
             [&](int w, std::int64_t b, std::int64_t e) {
    auto& ws = st.wscratch.at(w);
    for (std::int64_t i = b; i < e; ++i) {
      const int v = from[static_cast<std::size_t>(i)];
      if (st.phi.colored(v)) continue;
      const double z = z_estimate(st, v);
      const double thr = factor * std::max(1.0, e_k_of(v));
      if (ge ? z >= thr : z > thr) {
        ws.kept.push_back(v);
      } else if (rest != nullptr) {
        ws.kept2.push_back(v);
      }
    }
  });
  sel->clear();
  if (rest != nullptr) rest->clear();
  for (int w = 0; w < par.workers(); ++w) {
    auto& ws = st.wscratch.at(w);
    sel->insert(sel->end(), ws.kept.begin(), ws.kept.end());
    if (rest != nullptr) {
      rest->insert(rest->end(), ws.kept2.begin(), ws.kept2.end());
    }
  }
}

}  // namespace

int complete_noncabals(State& st, const std::vector<int>& clique_ids) {
  const auto& h = st.h();
  const int lb = 2 * ceil_log2(static_cast<std::uint64_t>(
                       std::max(2, h.n())));

  // Orchestration sets live in the State-owned PhaseScratch (ph.rest holds
  // clique_ids at the call site; this phase claims verts/sel/sel2).
  auto& all = st.ph.verts;
  all.clear();
  for (const int k : clique_ids) st.append_uncolored_members(k, &all);
  if (all.empty()) return 0;

  // Phase I: vertices whose z̃ certifies non-reserved palette slack try
  // palette colors above the reserved prefix; O(1) iterations.
  const int t_iters = std::max(2, kTryColorRounds / 2);
  auto& s_i = st.ph.sel;
  for (int it = 0; it < t_iters; ++it) {
    select_by_z(st, all, 0.25 * kGammaReuse, /*ge=*/true, &s_i,
                nullptr);
    if (s_i.empty()) break;
    // z̃ recomputation: one fingerprint aggregation (Claim 8.3).
    st.rt->charge(1, 2 * st.params.fingerprint_t + 16);
    try_color_round(st, s_i, clique_palette_sampler(st),
                    kTryColorActivation);
  }

  // Split leftovers: large-z̃ vertices (few per clique, Lemma 8.4) finish
  // with MCT on the reserved prefix; the rest have reserved slack by
  // Lemma 8.2 and follow in phase II.
  st.rt->charge(1, 2 * st.params.fingerprint_t + 16);
  auto& s_last = st.ph.sel;
  auto& phase2 = st.ph.sel2;
  select_by_z(st, all, 0.25 * kGammaReuse, /*ge=*/false, &s_last,
              &phase2);
  const auto reserved_slack = [&st](int v) {
    // |[r_v] ∩ L(v)| >= r_v - e_v (Lemma 8.5): only external neighbors
    // consume reserved colors. The algorithm knows ẽ_v (Lemma 5.7), so
    // the per-vertex bound replaces the paper's worst-case 25 e_K figure
    // (itself only meaningful when r = 250 ell >> e_K).
    return std::max(1,
                    static_cast<int>(st.dc.r_of(v) - st.dc.ext_est(v) - 1));
  };
  MctOptions mct;
  mct.slack = reserved_slack;
  multicolor_trial(st, &s_last, reserved_set_sampler(st), mct);

  // Phase II: O(1) reserved TryColor rounds, then MCT. s_last now holds
  // the phase-I leftovers; phase2 shrinks in place to its own leftovers.
  try_color_rounds(st, &phase2,
                   [&st](int v, Rng& rng) -> int {
                     const int r = st.dc.r_of(v);
                     if (r <= 0) return -1;
                     return static_cast<int>(
                         rng.next_below(static_cast<std::uint64_t>(r)));
                   },
                   kTryColorActivation,
                   std::max(2, kTryColorRounds / 2));
  multicolor_trial(st, &phase2, reserved_set_sampler(st), mct);

  st.rt->charge(1, lb);
  s_last.insert(s_last.end(), phase2.begin(), phase2.end());
  if (s_last.empty()) return 0;
  return fallback_finish(st, s_last);
}

}  // namespace ccg::color
