// Representative set families (paper, Definition C.5 / Lemma C.6) and
// their use inside MultiColorTrial.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cluster/validate.hpp"
#include "color/multicolor_trial.hpp"
#include "common/repsets.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"

namespace ccg {
namespace {

TEST(RepSets, MembersAreDistinctInUniverseAndDeterministic) {
  const RepresentativeFamily fam(300, 64, 1000, 42);
  const RepresentativeFamily fam2(300, 64, 1000, 42);
  for (const int i : {0, 1, 17, 999}) {
    const auto s = fam.set(i);
    EXPECT_EQ(s, fam2.set(i));  // any machine reconstructs the same member
    EXPECT_EQ(static_cast<int>(s.size()), 64);
    std::set<int> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), s.size());
    for (const int e : s) {
      EXPECT_GE(e, 0);
      EXPECT_LT(e, 300);
    }
  }
  EXPECT_NE(fam.set(3), fam.set(4));
}

TEST(RepSets, SetSizeClampedToUniverse) {
  const RepresentativeFamily fam(10, 64, 100, 7);
  EXPECT_EQ(fam.set_size(), 10);
  const auto s = fam.set(0);
  std::set<int> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);  // the whole universe
}

TEST(RepSets, IndexBitsAreLogarithmic) {
  const RepresentativeFamily fam(
      256, 64, RepresentativeFamily::recommended_family_size(256, 1e-6),
      3);
  // O(log n)-bit broadcast: the Lemma C.6 family for a 256-color universe
  // must have an index describable in a CONGEST word.
  EXPECT_LE(fam.index_bits(), 24);
  EXPECT_GE(fam.index_bits(), 8);
}

TEST(RepSets, SizingFormulasMonotone) {
  // s grows as alpha^-2, delta^-1 and log(1/nu).
  const int base = RepresentativeFamily::recommended_set_size(0.5, 0.1,
                                                              1e-3);
  EXPECT_GT(RepresentativeFamily::recommended_set_size(0.25, 0.1, 1e-3),
            base);
  EXPECT_GT(RepresentativeFamily::recommended_set_size(0.5, 0.05, 1e-3),
            base);
  EXPECT_GT(RepresentativeFamily::recommended_set_size(0.5, 0.1, 1e-6),
            base);
}

// Definition C.5 verified empirically: for random targets T, a uniform
// member samples |T| proportionally up to (1 +- alpha) except with
// frequency ~ nu.
TEST(RepSets, RepresentativePredicateHolds) {
  const int k = 512;
  const double alpha = 0.5, delta = 0.1;
  const int s =
      RepresentativeFamily::recommended_set_size(alpha, delta, 1e-3);
  const RepresentativeFamily fam(k, s, 4096, 99);
  Rng rng(7);

  for (const double frac : {0.1, 0.3, 0.7}) {
    // Random target of size frac*k.
    const int tsize = static_cast<int>(frac * k);
    std::vector<char> in_t(static_cast<std::size_t>(k), 0);
    {
      const auto perm = rng.permutation(k);
      for (int i = 0; i < tsize; ++i) {
        in_t[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
            1;
      }
    }
    int violations = 0;
    const int trials = 800;
    for (int it = 0; it < trials; ++it) {
      const auto member = fam.set(fam.sample_index(rng));
      int inter = 0;
      for (const int e : member) {
        if (in_t[static_cast<std::size_t>(e)]) ++inter;
      }
      const double ratio =
          static_cast<double>(inter) / static_cast<double>(member.size());
      const double target = static_cast<double>(tsize) / k;
      if (target >= delta) {
        if (std::abs(ratio - target) > alpha * target) ++violations;
      } else {
        if (ratio > (1 + alpha) * delta) ++violations;
      }
    }
    // nu = 1e-3 nominal; allow generous sampling slack.
    EXPECT_LE(violations, 8) << "frac=" << frac;
  }
}

TEST(RepSets, SmallTargetsRarelyOverSampled) {
  const int k = 512;
  const double alpha = 0.5, delta = 0.1;
  const int s =
      RepresentativeFamily::recommended_set_size(alpha, delta, 1e-3);
  const RepresentativeFamily fam(k, s, 4096, 123);
  Rng rng(11);
  // |T| < delta*k: the second clause of Definition C.5.
  std::vector<char> in_t(static_cast<std::size_t>(k), 0);
  for (int i = 0; i < k / 20; ++i) in_t[static_cast<std::size_t>(i)] = 1;
  int violations = 0;
  for (int it = 0; it < 800; ++it) {
    const auto member = fam.set(fam.sample_index(rng));
    int inter = 0;
    for (const int e : member) {
      if (in_t[static_cast<std::size_t>(e)]) ++inter;
    }
    if (static_cast<double>(inter) / member.size() > (1 + alpha) * delta) {
      ++violations;
    }
  }
  EXPECT_LE(violations, 8);
}

TEST(RepSets, MultiColorTrialRunsOnRepresentativeSets) {
  // Full sparse-phase MCT with genuine representative sets: dense-free
  // random graph, everyone has Delta/2-ish slack after TryColor.
  Rng rng(17);
  const auto g = graph::gnm(1200, 24000, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  auto params = color::Params::defaults_for(g.n(), 19);
  params.use_representative_sets = true;
  color::State st(rt, params);

  std::vector<int> all(static_cast<std::size_t>(g.n()));
  for (int v = 0; v < g.n(); ++v) all[static_cast<std::size_t>(v)] = v;
  // Degree ~ 40 << Delta+1 colors: every vertex has linear slack in the
  // full space, the Lemma D.1 regime.
  color::MctOptions opt;
  opt.max_rounds = 48;
  const auto sampler = color::representative_set_sampler(
      st.num_colors(), 0, params.seed ^ 0xC5C5C5C5ULL);
  color::multicolor_trial(st, &all, sampler, opt);
  EXPECT_TRUE(all.empty());
  cluster::check_proper_total(g, st.phi.vec(), st.num_colors());
}

TEST(RepSets, FullPipelineWithRepresentativeSets) {
  Rng rng(23);
  graph::PlantedSpec spec;
  spec.delta = 96;
  spec.num_cliques = 3;
  spec.anti_deg = 2;
  spec.external_deg = 8;
  spec.num_sparse = 250;
  spec.sparse_avg_deg = 24.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  auto params = color::Params::defaults_for(planted.g.n(), 29);
  params.use_representative_sets = true;
  const auto out = testing::solve(Problem::cluster(cg), Algo::kAuto, params);
  ASSERT_TRUE(out.ok()) << out.error.message;
  const auto& res = out.result;
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
}

}  // namespace
}  // namespace ccg
