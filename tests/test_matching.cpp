// Tests: colorful matching (Lemma 4.9) and fingerprint matching in cabals
// (Section 6, Algorithm 7).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>

#include "color/matching.hpp"
#include "common/hashing.hpp"
#include "helpers.hpp"

namespace ccg::color {
namespace {

graph::PlantedSpec cabal_spec(int delta, int anti, int ext) {
  graph::PlantedSpec spec;
  spec.delta = delta;
  spec.num_cliques = 3;
  spec.anti_deg = anti;
  spec.external_deg = ext;
  return spec;
}

TEST(ColorfulMatching, BuildsReuseSlack) {
  color::Params params;
  params.seed = 3;
  // Plenty of anti-edges: matching should reach the target quickly.
  auto f = ccg::testing::make_planted_fixture(cabal_spec(80, 10, 12),
                                              params, 17, 4.0);
  auto& st = *f->st;
  std::vector<int> ids{0, 1, 2};
  const int target = 8;
  colorful_matching_run(st, ids, target);
  for (const int k : ids) {
    EXPECT_GE(st.palettes[k].repeats(), target) << "clique " << k;
  }
  cluster::check_proper_partial(st.h(), st.phi.vec());
  // Every colored vertex shares its color with another member of its
  // clique (reuse-only invariant of Lemma 4.9).
  for (int v = 0; v < st.h().n(); ++v) {
    if (!st.phi.colored(v)) continue;
    const int k = st.dc.clique_of(v);
    ASSERT_GE(k, 0);
    EXPECT_GE(st.palettes[k].count(st.phi.get(v)), 2);
    // No reserved color used.
    EXPECT_GE(st.phi.get(v), st.dc.reserved_cap);
  }
}

TEST(ColorfulMatching, SameColorPairsAreAntiEdges) {
  color::Params params;
  params.seed = 5;
  auto f = ccg::testing::make_planted_fixture(cabal_spec(60, 6, 8), params,
                                              19, 4.0);
  auto& st = *f->st;
  std::vector<int> ids{0, 1, 2};
  colorful_matching_run(st, ids, 6);
  for (int k = 0; k < 3; ++k) {
    std::map<int, std::vector<int>> by_color;
    for (const int v : st.dc.acd.members[k]) {
      if (st.phi.colored(v)) by_color[st.phi.get(v)].push_back(v);
    }
    for (const auto& [c, vs] : by_color) {
      for (std::size_t i = 0; i < vs.size(); ++i) {
        for (std::size_t j = i + 1; j < vs.size(); ++j) {
          EXPECT_FALSE(st.h().has_edge(vs[i], vs[j]))
              << "same color " << c << " on edge " << vs[i] << "," << vs[j];
        }
      }
    }
  }
}

// The colorful matching before the neighborhood split, kept as the
// reference for colorful_matching_run: the verdict scans N(v) once for a
// colored neighbor holding c and once for an external candidate on c, and
// the commit buckets every clique's survivors in one global sort by
// (clique * C + color, vertex). Sequential and uncharged, it draws the
// same (round, entity) streams as the library routine.
void reference_scan_matching(State& st, const std::vector<int>& ids,
                             int target) {
  const auto& h = st.h();
  const int prefix = st.dc.reserved_cap;
  const int span = st.num_colors() - prefix;
  std::vector<char> done(ids.size(), 0);
  std::vector<int> cand(static_cast<std::size_t>(h.n()), -1);
  for (int round = 0; round < kMatchingRounds; ++round) {
    std::vector<int> participants;
    for (std::size_t ki = 0; ki < ids.size(); ++ki) {
      if (st.palettes[ids[ki]].repeats() >= target) done[ki] = 1;
      if (done[ki]) continue;
      for (const int v : st.dc.acd.members[ids[ki]]) {
        if (!st.phi.colored(v)) participants.push_back(v);
      }
    }
    if (participants.empty()) break;
    std::fill(cand.begin(), cand.end(), -1);
    st.bump_trial_round();
    for (const int v : participants) {
      Rng rng = st.trial_rng(static_cast<std::uint64_t>(v));
      if (!rng.next_bool(0.5)) continue;
      cand[v] = prefix + static_cast<int>(
                             rng.next_below(static_cast<std::uint64_t>(span)));
    }
    std::vector<std::pair<std::int64_t, int>> keyed;
    for (const int v : participants) {
      const int c = cand[v];
      if (c < 0 || st.phi.neighbor_uses(h, v, c)) continue;
      bool ok = true;
      for (const int u : h.neighbors(v)) {
        if (st.dc.clique_of(u) != st.dc.clique_of(v) && cand[u] == c) {
          ok = false;
        }
      }
      if (ok) {
        keyed.emplace_back(
            static_cast<std::int64_t>(st.dc.clique_of(v)) * st.num_colors() +
                c,
            v);
      }
    }
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t lo = 0; lo < keyed.size();) {
      std::size_t hi = lo;
      while (hi < keyed.size() && keyed[hi].first == keyed[lo].first) ++hi;
      std::vector<int> chosen;
      for (std::size_t i = lo; i < hi; ++i) {
        const int v = keyed[i].second;
        if (std::none_of(chosen.begin(), chosen.end(),
                         [&](int w) { return h.has_edge(v, w); })) {
          chosen.push_back(v);
        }
      }
      if (chosen.size() % 2 == 1) chosen.pop_back();
      if (chosen.size() >= 2) {
        const auto c = static_cast<int>(keyed[lo].first % st.num_colors());
        for (const int v : chosen) st.assign(v, c);
      }
      lo = hi;
    }
  }
}

// Colors every third member of every clique with its smallest candidate
// color (at or above the reserved prefix) that no neighbor holds, so the
// palettes start with nonzero counts and the participants' anti-neighbors
// hold candidate colors.
void precolor_thirds(State& st) {
  for (int k = 0; k < st.dc.acd.num_cliques; ++k) {
    const auto& members = st.dc.acd.members[k];
    for (std::size_t i = 0; i < members.size(); i += 3) {
      const int v = members[i];
      for (int c = st.dc.reserved_cap; c < st.num_colors(); ++c) {
        if (!st.phi.neighbor_uses(st.h(), v, c)) {
          st.assign(v, c);
          break;
        }
      }
    }
  }
}

TEST(ColorfulMatching, MatchesNeighborScanReference) {
  // The verdict answers "does a colored neighbor hold c" from the clique
  // palette corrected by anti(v) plus ext(v), and the commit runs per
  // clique on the round engine; colors and palettes must equal the
  // two-scan, globally sorted reference bit for bit at every worker count.
  // A wide reserved prefix leaves a short candidate span, so participants
  // often propose a color an anti-neighbor already holds.
  int matched = 0;
  for (const int anti : {6, 20}) {
    for (const int threads : {1, 2, 4, 8}) {
      for (const std::uint64_t seed : {3u, 4u}) {
        color::Params params;
        params.seed = seed;
        params.reserved_cap_frac = 0.75;
        const auto spec = cabal_spec(60, anti, 4);
        auto lib = ccg::testing::make_planted_fixture(spec, params, 71 + seed,
                                                      4.0, threads);
        auto ref = ccg::testing::make_planted_fixture(spec, params, 71 + seed,
                                                      4.0, threads);
        precolor_thirds(*lib->st);
        precolor_thirds(*ref->st);
        ASSERT_EQ(lib->st->phi.vec(), ref->st->phi.vec());
        const auto colored = [](const State& st) {
          return std::count_if(st.phi.vec().begin(), st.phi.vec().end(),
                               [](int c) { return c != kUncolored; });
        };
        matched -= static_cast<int>(colored(*lib->st));
        const std::vector<int> ids{0, 1, 2};
        const int target = 1000;  // never reached: all rounds run
        colorful_matching_run(*lib->st, ids, target);
        reference_scan_matching(*ref->st, ids, target);
        const std::string label = "anti=" + std::to_string(anti) +
                                  " threads=" + std::to_string(threads) +
                                  " seed=" + std::to_string(seed);
        ASSERT_EQ(lib->st->phi.vec(), ref->st->phi.vec()) << label;
        for (const int k : ids) {
          const auto& got = lib->st->palettes[k];
          const auto& want = ref->st->palettes[k];
          EXPECT_EQ(got.colored_total(), want.colored_total()) << label;
          EXPECT_EQ(got.distinct_total(), want.distinct_total()) << label;
          for (int c = 0; c < got.num_colors(); ++c) {
            ASSERT_EQ(got.count(c), want.count(c))
                << label << " clique " << k << " color " << c;
          }
        }
        matched += static_cast<int>(colored(*lib->st));
        cluster::check_proper_partial(lib->st->h(), lib->st->phi.vec());
      }
    }
  }
  EXPECT_GT(matched, 0);
}

// How often each branch of the colorful-matching verdict and commit
// decided in ungated_matching.
struct VerdictTally {
  int palette = 0;  // a colored in-clique neighbor holds c
  int anti = 0;     // members hold c, but all lie in anti(v): no clash
  int ext = 0;      // an external neighbor holds or proposes c
  int lone = 0;     // a bucket of survivors that holds no anti pair
};

// The colorful matching without the same-color anti-pair gate: every
// proposer gets the palette/anti/ext verdict, and the commit buckets every
// survivor of a clique by (color, vertex). Sequential and uncharged, it
// draws the same (round, entity) streams as colorful_matching_run.
VerdictTally ungated_matching(State& st, const std::vector<int>& ids,
                              int target) {
  const auto& info = st.dc.info;
  const int prefix = st.dc.reserved_cap;
  const int span = st.num_colors() - prefix;
  std::vector<char> done(ids.size(), 0);
  std::vector<int> cand(static_cast<std::size_t>(st.h().n()), -1);
  VerdictTally tally;
  for (int round = 0; round < kMatchingRounds; ++round) {
    std::vector<std::vector<int>> live;
    std::size_t participants = 0;
    for (std::size_t ki = 0; ki < ids.size(); ++ki) {
      if (st.palettes[ids[ki]].repeats() >= target) done[ki] = 1;
      if (done[ki]) continue;
      live.push_back(st.uncolored_members(ids[ki]));
      participants += live.back().size();
    }
    if (participants == 0) break;
    std::fill(cand.begin(), cand.end(), -1);
    st.bump_trial_round();
    for (const auto& members : live) {
      for (const int v : members) {
        Rng rng = st.trial_rng(static_cast<std::uint64_t>(v));
        if (!rng.next_bool(0.5)) continue;
        cand[v] = prefix + static_cast<int>(rng.next_below(
                               static_cast<std::uint64_t>(span)));
      }
    }
    std::vector<std::vector<std::pair<int, int>>> keyed(live.size());
    for (std::size_t j = 0; j < live.size(); ++j) {
      for (const int v : live[j]) {
        const int c = cand[v];
        if (c < 0) continue;
        const int held = st.palettes[st.dc.clique_of(v)].count(c);
        int inside = held;
        for (const int w : info.anti(v)) inside -= st.phi.get(w) == c;
        if (inside > 0) {
          ++tally.palette;
          continue;
        }
        tally.anti += held > 0;
        const auto ext = info.ext(v);
        if (std::any_of(ext.begin(), ext.end(), [&](int u) {
              return st.phi.get(u) == c || cand[u] == c;
            })) {
          ++tally.ext;
          continue;
        }
        keyed[j].emplace_back(c, v);
      }
    }
    for (auto& bucket_pairs : keyed) {
      std::sort(bucket_pairs.begin(), bucket_pairs.end());
      for (std::size_t lo = 0; lo < bucket_pairs.size();) {
        std::size_t hi = lo;
        while (hi < bucket_pairs.size() &&
               bucket_pairs[hi].first == bucket_pairs[lo].first) {
          ++hi;
        }
        std::vector<int> chosen;
        for (std::size_t i = lo; i < hi; ++i) {
          const int v = bucket_pairs[i].second;
          const auto anti = info.anti(v);
          if (std::all_of(chosen.begin(), chosen.end(), [&](int u) {
                return std::binary_search(anti.begin(), anti.end(), u);
              })) {
            chosen.push_back(v);
          }
        }
        tally.lone += chosen.size() == 1;
        if (chosen.size() % 2 == 1) chosen.pop_back();
        for (const int v : chosen) st.assign(v, bucket_pairs[lo].first);
        lo = hi;
      }
    }
  }
  return tally;
}

TEST(ColorfulMatching, GatedVerdictMatchesUngated) {
  // The verdict runs only for proposers of a color that some proposer
  // shares with one of its anti-neighbors; the rest read -1. Colors and
  // repeats must equal the ungated verdict and commit bit for bit, on
  // planted cliques stored as id runs and scattered by a relabelling. A
  // short candidate span over pre-colored members (every third) and
  // pre-colored sparse neighbors makes every verdict branch decide.
  VerdictTally total;
  for (const std::uint64_t relabel : {0u, 91u}) {
    for (const int target : {4, 1000}) {
      for (const int threads : {1, 2, 8}) {
        color::Params params;
        params.seed = 5 + relabel;
        params.reserved_cap_frac = 0.75;
        graph::PlantedSpec spec = cabal_spec(60, 6, 6);
        spec.num_sparse = 60;
        spec.sparse_avg_deg = 6.0;
        spec.external_to_sparse = 0.5;
        auto lib = ccg::testing::make_planted_fixture(spec, params, 67, 4.0,
                                                      threads, relabel);
        auto ref = ccg::testing::make_planted_fixture(spec, params, 67, 4.0,
                                                      1, relabel);
        for (auto* st : {lib->st.get(), ref->st.get()}) {
          precolor_thirds(*st);
          // Every other sparse vertex takes its smallest free candidate
          // color, so ext(v) rows hold colored neighbors.
          for (int v = 0; v < st->h().n(); v += 2) {
            if (st->dc.clique_of(v) >= 0) continue;
            for (int c = st->dc.reserved_cap; c < st->num_colors(); ++c) {
              if (!st->phi.neighbor_uses(st->h(), v, c)) {
                st->assign(v, c);
                break;
              }
            }
          }
        }
        ASSERT_EQ(lib->st->phi.vec(), ref->st->phi.vec());
        const std::vector<int> ids{0, 1, 2};
        colorful_matching_run(*lib->st, ids, target);
        const auto tally = ungated_matching(*ref->st, ids, target);
        total.palette += tally.palette;
        total.anti += tally.anti;
        total.ext += tally.ext;
        total.lone += tally.lone;
        const std::string label = "relabel=" + std::to_string(relabel) +
                                  " target=" + std::to_string(target) +
                                  " threads=" + std::to_string(threads);
        ASSERT_EQ(lib->st->phi.vec(), ref->st->phi.vec()) << label;
        for (const int k : ids) {
          EXPECT_EQ(lib->st->palettes[k].repeats(),
                    ref->st->palettes[k].repeats())
              << label << " clique " << k;
        }
        cluster::check_proper_partial(lib->st->h(), lib->st->phi.vec());
      }
    }
  }
  EXPECT_GT(total.palette, 0);
  EXPECT_GT(total.anti, 0);
  EXPECT_GT(total.ext, 0);
  EXPECT_GT(total.lone, 0);
}

TEST(FingerprintMatching, FindsValidAntiMatching) {
  color::Params params;
  params.seed = 7;
  // Cabal regime: tiny anti-degree, tiny external degree.
  auto f = ccg::testing::make_planted_fixture(cabal_spec(100, 2, 4),
                                              params, 23, 8.0);
  auto& st = *f->st;
  std::vector<std::pair<int, int>> pairs;
  fingerprint_matching_into(st, 0, nullptr, /*charge=*/true, &pairs);
  EXPECT_GE(pairs.size(), 2u);
  std::set<int> seen;
  for (const auto& [u, w] : pairs) {
    EXPECT_FALSE(st.h().has_edge(u, w));
    EXPECT_EQ(st.dc.clique_of(u), 0);
    EXPECT_EQ(st.dc.clique_of(w), 0);
    EXPECT_TRUE(seen.insert(u).second) << "vertex " << u << " reused";
    EXPECT_TRUE(seen.insert(w).second) << "vertex " << w << " reused";
  }
}

TEST(FingerprintMatching, SizeCoversAntiDegree) {
  // Lemma 6.2 gives a *lower bound* ~ tau * â_K / (4 eps); operationally
  // Prop 4.15 needs M_K >= a_v for most vertices, i.e. matching >= anti
  // here (every vertex has anti-degree exactly `anti`).
  color::Params params;
  params.seed = 9;
  for (const int anti : {2, 6}) {
    auto f = ccg::testing::make_planted_fixture(
        cabal_spec(120, anti, 4), params, 29 + anti, 8.0);
    std::vector<std::pair<int, int>> pairs;
    fingerprint_matching_into(*f->st, 0, nullptr, /*charge=*/true, &pairs);
    EXPECT_GE(pairs.size(), static_cast<std::size_t>(anti))
        << "anti=" << anti;
  }
}

TEST(FingerprintMatching, EmptyOnTrueClique) {
  // A cabal with no anti-edges must yield an empty matching, not a bogus
  // one.
  color::Params params;
  params.seed = 11;
  auto f = ccg::testing::make_planted_fixture(cabal_spec(60, 0, 4), params,
                                              31, 8.0);
  std::vector<std::pair<int, int>> pairs;
  fingerprint_matching_into(*f->st, 0, nullptr, /*charge=*/true, &pairs);
  EXPECT_TRUE(pairs.empty());
}

// Algorithm 7 as the paper states it, kept as a brute-force reference for
// fingerprint_matching_into: every member's in-clique neighborhood maxima
// Y_v are built explicitly, and A_i = {v != u_i : Y_v != Y_K}. Sequential
// and uncharged, it draws the same (round, entity) streams as the library
// routine, so both must return the same pairs on identical states.
std::vector<std::pair<int, int>> reference_yv_matching(
    State& st, const std::vector<int>& members) {
  const auto& h = st.h();
  const int sz = static_cast<int>(members.size());
  if (sz < 2) return {};
  const int k = std::max(
      8, static_cast<int>(std::lround(kCabalMatchingKFactor *
                                      std::log2(std::max(4, h.n())))));
  std::vector<std::vector<int>> x(sz, std::vector<int>(k));
  st.bump_trial_round();
  for (int i = 0; i < sz; ++i) {
    Rng rng = st.trial_rng(static_cast<std::uint64_t>(members[i]));
    for (int t = 0; t < k; ++t) x[i][t] = rng.next_geometric_half();
  }
  std::vector<int> yk(k, sketch::kEmpty);
  for (int i = 0; i < sz; ++i) {
    for (int t = 0; t < k; ++t) yk[t] = std::max(yk[t], x[i][t]);
  }
  std::map<int, int> local;
  for (int i = 0; i < sz; ++i) local[members[i]] = i;
  std::vector<std::vector<int>> yv(sz, std::vector<int>(k, -1));
  for (int i = 0; i < sz; ++i) {
    for (const int u : h.neighbors(members[i])) {
      const auto it = local.find(u);
      if (it == local.end()) continue;
      for (int t = 0; t < k; ++t) {
        yv[i][t] = std::max(yv[i][t], x[it->second][t]);
      }
    }
  }
  std::vector<int> trial_u(k, -1);
  std::vector<bool> used_as_max(sz, false);
  for (int t = 0; t < k; ++t) {
    int count = 0, ui = -1;
    for (int i = 0; i < sz; ++i) {
      if (x[i][t] == yk[t]) {
        ++count;
        ui = i;
      }
    }
    if (count != 1 || used_as_max[ui]) continue;
    bool any_anti = false;
    for (int i = 0; i < sz; ++i) any_anti |= i != ui && yv[i][t] != yk[t];
    if (!any_anti) continue;
    used_as_max[ui] = true;
    trial_u[t] = ui;
  }
  std::vector<int> trial_w(k, -1);
  st.bump_trial_round();
  for (int t = 0; t < k; ++t) {
    const int ui = trial_u[t];
    if (ui < 0) continue;
    Rng rng = st.trial_rng(static_cast<std::uint64_t>(t));
    MinWiseHash hash(static_cast<std::uint64_t>(std::max(2, sz)), 0.5, rng);
    std::uint64_t best_h = 0;
    for (int i = 0; i < sz; ++i) {
      if (i == ui || yv[i][t] == yk[t]) continue;
      const auto hi = hash(static_cast<std::uint64_t>(i));
      if (trial_w[t] < 0 || hi < best_h) {
        trial_w[t] = i;
        best_h = hi;
      }
    }
  }
  std::vector<bool> sampled_w(sz, false), w_seen(sz, false);
  for (int t = 0; t < k; ++t) {
    if (trial_w[t] >= 0) sampled_w[trial_w[t]] = true;
  }
  std::vector<std::pair<int, int>> pairs;
  for (int t = 0; t < k; ++t) {
    const int ui = trial_u[t], wi = trial_w[t];
    if (ui < 0 || wi < 0 || sampled_w[ui] || w_seen[wi]) continue;
    w_seen[wi] = true;
    pairs.emplace_back(members[ui], members[wi]);
  }
  return pairs;
}

TEST(FingerprintMatching, MatchesYvReference) {
  // On a unique-maximum trial, Y_v == Y_K iff v is adjacent to u_i: the
  // adjacency test must pick exactly the pairs the Y_v matrix picks, for
  // whole cliques and member subsets, at every worker count.
  std::size_t total_pairs = 0;
  for (const int anti : {1, 2, 4}) {
    for (const int threads : {1, 4}) {
      for (const bool use_subset : {false, true}) {
        color::Params params;
        params.seed = 31 + anti;
        const auto spec = cabal_spec(100, anti, 4);
        auto lib = ccg::testing::make_planted_fixture(spec, params, 41 + anti,
                                                      8.0, threads);
        auto ref = ccg::testing::make_planted_fixture(spec, params, 41 + anti,
                                                      8.0, threads);
        for (int k = 0; k < 3; ++k) {
          std::vector<int> members = lib->st->dc.acd.members[k];
          if (use_subset) {
            std::vector<int> sub;
            for (std::size_t i = 0; i < members.size(); ++i) {
              if (i % 3 != 0) sub.push_back(members[i]);
            }
            members = sub;
          }
          std::vector<std::pair<int, int>> got;
          fingerprint_matching_into(*lib->st, k,
                                    use_subset ? &members : nullptr,
                                    /*charge=*/true, &got);
          const auto want = reference_yv_matching(*ref->st, members);
          EXPECT_EQ(got, want) << "anti=" << anti << " threads=" << threads
                               << " subset=" << use_subset << " clique " << k;
          total_pairs += want.size();
        }
      }
    }
  }
  EXPECT_GT(total_pairs, 0u);
}

// Thread counts of the batch test: 1, 2, 4 and 8, plus CCG_TEST_THREADS
// when it names another count.
std::vector<int> batch_thread_counts() {
  std::vector<int> counts{1, 2, 4, 8};
  if (const char* env = std::getenv("CCG_TEST_THREADS")) {
    const int t = std::max(1, std::atoi(env));
    if (std::find(counts.begin(), counts.end(), t) == counts.end()) {
      counts.push_back(t);
    }
  }
  return counts;
}

TEST(FingerprintMatching, BatchMatchesPerCliqueCalls) {
  // One batch must append exactly the pairs of single-clique calls in list
  // order and leave the stream at the same round. Each step runs on the
  // same two states in sequence: whole cliques in a shuffled list order;
  // per-clique subsets with a 1-member and an empty subset in the middle
  // (those cliques use no stream rounds); two cliques, so at 4 and 8
  // workers some workers own an empty shard after holding pairs in the
  // step before; and an empty batch.
  std::size_t total_pairs = 0;
  for (const int threads : batch_thread_counts()) {
    color::Params params;
    params.seed = 77;
    graph::PlantedSpec spec = cabal_spec(90, 2, 4);
    spec.num_cliques = 6;
    auto lib = ccg::testing::make_planted_fixture(spec, params, 83, 8.0,
                                                  threads);
    auto ref = ccg::testing::make_planted_fixture(spec, params, 83, 8.0, 1);
    const auto& members = lib->st->dc.acd.members;
    ASSERT_EQ(members, ref->st->dc.acd.members);
    // Start off round 0 and append after an existing pair.
    for (auto* st : {lib->st.get(), ref->st.get()}) {
      for (int i = 0; i < 3; ++i) st->bump_trial_round();
    }
    const std::vector<std::pair<int, int>> sentinel{{-1, -2}};
    std::vector<std::pair<int, int>> got = sentinel, want = sentinel;

    const auto keep = [](int j, std::size_t i) {
      if (j == 1) return i == 0;  // one participant: no stream rounds
      if (j == 2) return false;   // none: no stream rounds
      return j % 2 == 0 || i % 3 != 0;
    };
    GroupLists subsets;
    subsets.reset(6);
    for (int j = 0; j < 6; ++j) {
      const auto& m = members[j];
      for (std::size_t i = 0; i < m.size(); ++i) {
        if (keep(j, i)) subsets.at(j).push_back(m[i]);
      }
    }
    ASSERT_EQ(subsets.at(1).size(), 1u);
    ASSERT_TRUE(subsets.at(2).empty());

    struct Step {
      const char* name;
      std::vector<int> cliques;
      const GroupLists* subsets;
    };
    const std::vector<Step> steps = {
        {"whole", {4, 1, 5, 0, 3, 2}, nullptr},
        {"subsets", {0, 1, 2, 3, 4, 5}, &subsets},
        {"two cliques", {5, 4}, nullptr},
        {"empty", {}, nullptr},
    };
    for (const auto& step : steps) {
      const std::string label =
          std::string(step.name) + " threads=" + std::to_string(threads);
      const auto round_before = lib->st->streams.round();
      ASSERT_EQ(round_before, ref->st->streams.round()) << label;
      const auto size_before = got.size();
      fingerprint_matching_batch(*lib->st, step.cliques, step.subsets, &got);
      for (std::size_t j = 0; j < step.cliques.size(); ++j) {
        fingerprint_matching_into(
            *ref->st, step.cliques[j],
            step.subsets ? &step.subsets->at(static_cast<int>(j)) : nullptr,
            /*charge=*/false, &want);
      }
      ASSERT_EQ(got, want) << label;
      EXPECT_EQ(lib->st->streams.round(), ref->st->streams.round()) << label;
      if (step.cliques.empty()) {
        EXPECT_EQ(got.size(), size_before) << label;
        EXPECT_EQ(lib->st->streams.round(), round_before) << label;
      } else {
        EXPECT_GT(got.size(), size_before) << label;
      }
    }
    EXPECT_EQ(got.front(), sentinel.front());
    total_pairs += got.size() - 1;
  }
  EXPECT_GT(total_pairs, 0u);
}

TEST(MatchingDeterminism, BitIdenticalAcrossThreadCounts) {
  // The three matching routines draw only from counter-based
  // per-(seed, round, entity) streams: every worker count must produce
  // the same matchings and the same colors, bit for bit.
  for (const int threads : {2, 8}) {
    color::Params params;
    params.seed = 21;
    auto base = ccg::testing::make_planted_fixture(cabal_spec(90, 4, 8),
                                                   params, 59, 4.0, 1);
    auto par = ccg::testing::make_planted_fixture(cabal_spec(90, 4, 8),
                                                  params, 59, 4.0, threads);
    std::vector<int> ids{0, 1, 2};
    colorful_matching_run(*base->st, ids, 6);
    colorful_matching_run(*par->st, ids, 6);
    for (const int k : ids) {
      EXPECT_EQ(base->st->palettes[k].repeats(),
                par->st->palettes[k].repeats())
          << "threads " << threads << " clique " << k;
    }
    ASSERT_EQ(base->st->phi.vec(), par->st->phi.vec())
        << "threads " << threads;

    const auto unc_base = base->st->uncolored_members(0);
    const auto unc_par = par->st->uncolored_members(0);
    ASSERT_EQ(unc_base, unc_par);
    std::vector<std::pair<int, int>> pairs_base, pairs_par;
    fingerprint_matching_into(*base->st, 0, &unc_base, /*charge=*/true,
                              &pairs_base);
    fingerprint_matching_into(*par->st, 0, &unc_par, /*charge=*/true,
                              &pairs_par);
    ASSERT_EQ(pairs_base, pairs_par) << "threads " << threads;

    if (!pairs_base.empty()) {
      EXPECT_EQ(color_anti_matching(*base->st, pairs_base),
                color_anti_matching(*par->st, pairs_par));
      EXPECT_EQ(base->st->phi.vec(), par->st->phi.vec())
          << "threads " << threads;
    }
  }
}

TEST(ColorAntiMatching, ColorsAllPairsProperly) {
  color::Params params;
  params.seed = 13;
  auto f = ccg::testing::make_planted_fixture(cabal_spec(100, 2, 4),
                                              params, 37, 8.0);
  auto& st = *f->st;
  std::vector<std::pair<int, int>> pairs;
  fingerprint_matching_into(st, 0, nullptr, /*charge=*/true, &pairs);
  ASSERT_GE(pairs.size(), 1u);
  const int colored = color_anti_matching(st, pairs);
  EXPECT_EQ(colored, static_cast<int>(pairs.size()));
  cluster::check_proper_partial(st.h(), st.phi.vec());
  for (const auto& [u, w] : pairs) {
    EXPECT_TRUE(st.phi.colored(u));
    EXPECT_EQ(st.phi.get(u), st.phi.get(w));
    EXPECT_GE(st.phi.get(u), st.dc.reserved_cap);
  }
  // M_K equals the number of pairs (each color counted once extra).
  EXPECT_EQ(st.palettes[0].repeats(), static_cast<int>(pairs.size()));
}

TEST(ColorAntiMatching, YieldsToSmallerPairThenLeavesBlockedPairUncolored) {
  // Pairs (1, 3) and (0, 2), one edge 2-3, and one non-reserved color, so
  // both pairs draw it in every round. (1, 3) must yield to (0, 2), whose
  // minimum endpoint is smaller, although its neighbor 2 is larger than 1.
  // The color is then taken at 2, so (1, 3) stays uncolored and is counted
  // as a retry instead of failing the call.
  const auto g = graph::Graph::from_edges(4, {{2, 3}});
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  color::Params params;
  if (const char* env = std::getenv("CCG_TEST_THREADS")) {
    params.threads = std::max(1, std::atoi(env));
  }
  State st(rt, params);
  st.dc.reserved_cap = 1;
  ASSERT_EQ(st.num_colors(), 2);
  const auto h_before = ledger.h_rounds();
  EXPECT_EQ(color_anti_matching(st, {{1, 3}, {0, 2}}), 1);
  EXPECT_EQ(st.retry_count, 1);
  // After the first trial 2 holds the only color, so (1, 3) is blocked
  // and leaves the trials: one trial of 3 H-rounds, not 64.
  EXPECT_EQ(ledger.h_rounds() - h_before, 3);
  EXPECT_EQ(st.phi.get(0), 1);
  EXPECT_EQ(st.phi.get(2), 1);
  EXPECT_FALSE(st.phi.colored(1));
  EXPECT_FALSE(st.phi.colored(3));
  cluster::check_proper_partial(st.h(), st.phi.vec());
}

TEST(ColorAntiMatching, PairWithAFreeColorKeepsDrawing) {
  // Pair (0, 1) with edges 0-2 and 1-3, two colors, and 2 colored 0: the
  // pair fails every trial that draws 0, but color 1 stays free for both
  // endpoints, so it must keep drawing until it takes 1. Over 16 seeds
  // some first draws are 0, so the pair fails a trial and stays.
  const auto g = graph::Graph::from_edges(4, {{0, 2}, {1, 3}});
  const auto cg = cluster::ClusterGraph::singleton(g);
  std::int64_t trials = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    net::Ledger ledger(cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    color::Params params;
    params.seed = seed;
    if (const char* env = std::getenv("CCG_TEST_THREADS")) {
      params.threads = std::max(1, std::atoi(env));
    }
    State st(rt, params);
    ASSERT_EQ(st.num_colors(), 2);
    ASSERT_EQ(st.dc.reserved_cap, 0);
    st.assign(2, 0);
    const auto h_before = ledger.h_rounds();
    EXPECT_EQ(color_anti_matching(st, {{0, 1}}), 1) << "seed " << seed;
    EXPECT_EQ(st.retry_count, 0) << "seed " << seed;
    EXPECT_EQ(st.phi.get(0), 1) << "seed " << seed;
    EXPECT_EQ(st.phi.get(1), 1) << "seed " << seed;
    trials += (ledger.h_rounds() - h_before) / 3;
  }
  EXPECT_GT(trials, 16);
}

}  // namespace
}  // namespace ccg::color
