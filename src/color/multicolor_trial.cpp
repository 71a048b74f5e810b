#include "color/multicolor_trial.hpp"

#include "color/primitives.hpp"

#include <algorithm>
#include <memory>

#include "common/mathutil.hpp"
#include "common/repsets.hpp"

namespace ccg::color {

void multicolor_trial(State& st, std::vector<int>* S_ptr,
                      const SetSampler& sampler, const MctOptions& opt) {
  auto& S = *S_ptr;
  const auto& h = st.h();
  const int n = h.n();
  const int x_cap =
      2 * std::max(1, ceil_log2(static_cast<std::uint64_t>(std::max(2, n))));
  prune_colored(st, &S);
  int x = 1;

  auto& sc = st.scratch;
  auto& par = *st.par;
  sc.ensure_vertices(n);
  sc.ensure_workers(par.workers());
  const int num_colors = st.num_colors();
  for (int round = 0; round < opt.max_rounds && !S.empty(); ++round) {
    const auto total = static_cast<std::int64_t>(S.size());
    // Active set lives in the round scratch; stamp it first so the
    // sampling phase sees every participant's activation (the fork/join
    // barrier between the two shard passes is the snapshot boundary).
    sc.begin_round();
    st.bump_trial_round();
    par.shards(total, [&](int, std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        sc.propose_at(S[static_cast<std::size_t>(i)], 1);
      }
    });

    // Sampling phase (parallel shards): each active vertex derives its
    // set from its private counter-based stream (neighbors reconstruct it
    // from the broadcast seed) into its worker's color-set pool.
    par.reset_acc(1);
    par.shards(total, [&](int w, std::int64_t b, std::int64_t e) {
      auto& ws = st.wscratch.at(w);
      std::int64_t x_max_local = 1;
      for (std::int64_t i = b; i < e; ++i) {
        const int v = S[static_cast<std::size_t>(i)];
        int xv = x;
        if (opt.slack) {
          int deg = 0;
          for (const int u : h.neighbors(v)) {
            if (sc.active(u)) ++deg;
          }
          const int cap_by_slack =
              deg > 0 ? std::max(1, opt.slack(v) / deg) : x_cap;
          xv = std::min(xv, cap_by_slack);
        }
        xv = std::min(xv, x_cap);
        x_max_local = std::max<std::int64_t>(x_max_local, xv);
        Rng rng = st.trial_rng(static_cast<std::uint64_t>(v));
        sampler(v, xv, rng, &ws.set_buf);
        if (!ws.set_buf.empty()) {
          sc.set_begin(v, w);
          for (const int c : ws.set_buf) sc.set_push(c, w);
          sc.set_end(v, w);
        }
      }
      par.acc(w) = std::max(par.acc(w), x_max_local);
    });
    const int x_max_round = static_cast<int>(std::max<std::int64_t>(
        1, par.acc_max()));

    // Adoption phase (Algorithm 16 step 3; parallel shards): adopt some
    // c in X(v) ∩ L(v) with c ∉ X(N(v)). One pass over N(v) builds the
    // blocked set — colors tried by a neighbor this round OR already held
    // by one — as a per-worker word-parallel ColorSet; the pick is the
    // first set entry not blocked, identical to the former marked-colors
    // + neighbor_uses double scan.
    auto& verdicts = sc.verdicts;
    verdicts.resize(S.size());
    par.shards(total, [&](int w, std::int64_t b, std::int64_t e) {
      auto& blocked = st.wscratch.at(w).blocked;
      for (std::int64_t i = b; i < e; ++i) {
        const int v = S[static_cast<std::size_t>(i)];
        const auto set = sc.set_of(v);
        int pick = -1;
        if (!set.empty()) {
          blocked.rebind(num_colors);
          for (const int u : h.neighbors(v)) {
            for (const int c : sc.set_of(u)) blocked.add(c);
            const int cu = st.phi.get(u);
            if (cu >= 0) blocked.add(cu);
          }
          for (const int c : set) {
            if (blocked.contains(c)) continue;
            pick = c;
            break;
          }
        }
        verdicts[static_cast<std::size_t>(i)] = pick;
      }
    });
    for (std::size_t i = 0; i < S.size(); ++i) {
      if (verdicts[i] >= 0) st.assign(S[i], verdicts[i]);
    }

    // Seed broadcast (O(log n) bits) + per-tried-color response bitmap.
    const int bits =
        2 * ceil_log2(static_cast<std::uint64_t>(std::max(2, n))) +
        x_max_round;
    st.rt->charge(2, bits);

    prune_colored(st, &S);
    x = std::min(x_cap, 2 * x);
  }
}

SetSampler uniform_set_sampler(int num_colors, int prefix) {
  CCG_CHECK(prefix >= 0 && prefix < num_colors);
  return [num_colors, prefix](int, int x, Rng& rng, std::vector<int>* out) {
    out->clear();
    out->reserve(static_cast<std::size_t>(x));
    for (int i = 0; i < x; ++i) {
      out->push_back(prefix +
                     static_cast<int>(rng.next_below(
                         static_cast<std::uint64_t>(num_colors - prefix))));
    }
  };
}

SetSampler reserved_set_sampler(const State& st) {
  return [&st](int v, int x, Rng& rng, std::vector<int>* out) {
    out->clear();
    const int r = st.dc.r_of(v);
    if (r <= 0) return;
    out->reserve(static_cast<std::size_t>(x));
    for (int i = 0; i < x; ++i) {
      out->push_back(
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(r))));
    }
  };
}

SetSampler representative_set_sampler(int num_colors, int prefix,
                                      std::uint64_t family_seed) {
  CCG_CHECK(prefix >= 0 && prefix < num_colors);
  const int universe = num_colors - prefix;
  // Lemma C.6 sizing at the library's working confidence; the member is
  // never materialized by the "receiving" side beyond the x picks, so the
  // only bandwidth is the index (checked by tests against O(log n)).
  const int s = std::max(
      64, RepresentativeFamily::recommended_set_size(0.5, 0.1, 1e-6));
  const auto family = std::make_shared<RepresentativeFamily>(
      universe, s, RepresentativeFamily::recommended_family_size(
                       universe, 1e-6),
      family_seed);
  return [family, prefix](int, int x, Rng& rng, std::vector<int>* out) {
    out->clear();
    const auto member = family->set(family->sample_index(rng));
    out->reserve(static_cast<std::size_t>(x));
    for (int i = 0; i < x; ++i) {
      out->push_back(prefix +
                     member[static_cast<std::size_t>(rng.next_below(
                         static_cast<std::uint64_t>(member.size())))]);
    }
  };
}

}  // namespace ccg::color
