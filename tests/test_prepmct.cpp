// Tests: Section 8 (PrepMCT / "Complete") — z estimates and the
// reserved-color endgame in non-cabals.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "color/matching.hpp"
#include "color/prep_mct.hpp"
#include "color/primitives.hpp"
#include "color/slack_generation.hpp"
#include "color/sync_trial.hpp"
#include "helpers.hpp"

namespace ccg::color {
namespace {

graph::PlantedSpec noncabal_spec(int delta, int ext) {
  graph::PlantedSpec spec;
  spec.delta = delta;
  spec.num_cliques = 3;
  spec.anti_deg = 2;
  spec.external_deg = ext;
  return spec;
}

// Drives cliques through slack generation + matching + SCT so that
// complete_noncabals starts from its real precondition.
void drive_to_complete(State& st, std::vector<int>* clique_ids) {
  slack_generation(st);
  for (int k = 0; k < st.dc.acd.num_cliques; ++k) {
    clique_ids->push_back(k);
  }
  const int target = std::max(
      1, static_cast<int>(2.2 * st.params.eps * st.delta()));
  colorful_matching_run(st, *clique_ids, target);
  std::vector<std::vector<int>> s_of(clique_ids->size());
  for (std::size_t i = 0; i < clique_ids->size(); ++i) {
    auto unc = st.uncolored_members((*clique_ids)[i]);
    std::sort(unc.begin(), unc.end());
    const int r = st.dc.reserved[static_cast<std::size_t>((*clique_ids)[i])];
    const int keep = std::max(0, static_cast<int>(unc.size()) - r);
    unc.resize(static_cast<std::size_t>(keep));
    s_of[i] = std::move(unc);
  }
  synchronized_color_trial(st, *clique_ids, s_of, nullptr);
}

class CompleteNonCabals : public ::testing::TestWithParam<int> {};

TEST_P(CompleteNonCabals, FinishesEveryCliqueWithoutFallback) {
  const int ext = GetParam();
  color::Params params;
  params.seed = 1000 + ext;
  auto f = ccg::testing::make_planted_fixture(noncabal_spec(128, ext),
                                              params, 3 + ext, 8.0);
  auto& st = *f->st;
  std::vector<int> ids;
  drive_to_complete(st, &ids);
  const int fallbacks = complete_noncabals(st, ids);
  for (const int k : ids) {
    EXPECT_TRUE(st.uncolored_members(k).empty()) << "clique " << k;
  }
  cluster::check_proper_partial(st.h(), st.phi.vec());
  EXPECT_LE(fallbacks, 2) << "reserved-color machinery leaned on the net";
}

INSTANTIATE_TEST_SUITE_P(ExtSweep, CompleteNonCabals,
                         ::testing::Values(12, 20, 28));

TEST(CompleteNonCabals, ReservedPrefixUntouchedUntilComplete) {
  // Before Complete runs, the reserved prefix [r_K] must be unused inside
  // every clique (NC-3) — it is Complete's endgame budget.
  color::Params params;
  params.seed = 71;
  auto f = ccg::testing::make_planted_fixture(noncabal_spec(128, 20),
                                              params, 9, 8.0);
  auto& st = *f->st;
  std::vector<int> ids;
  drive_to_complete(st, &ids);
  for (const int k : ids) {
    const int r = st.dc.reserved[static_cast<std::size_t>(k)];
    EXPECT_EQ(st.palettes[static_cast<std::size_t>(k)].used_distinct(0,
                                                                     r - 1),
              0)
        << "clique " << k << " used reserved colors early";
  }
  // After Complete, reserved colors may appear — that is the design.
  complete_noncabals(st, ids);
  cluster::check_proper_partial(st.h(), st.phi.vec());
}

TEST(ZEstimate, TracksPaletteConsumption) {
  // As the clique fills up, z̃ must decrease (monotone accounting).
  color::Params params;
  params.seed = 73;
  auto f = ccg::testing::make_planted_fixture(noncabal_spec(96, 16),
                                              params, 11, 8.0);
  auto& st = *f->st;
  const int k = 0;
  const auto members = st.dc.acd.members[k];
  const int probe = members.back();
  const double z0 = z_estimate(st, probe);
  // Color 30 members with distinct non-reserved colors.
  int colored = 0;
  const int r = st.dc.reserved[k];
  for (const int v : members) {
    if (v == probe || colored == 30) continue;
    const int c = r + colored;
    if (!st.phi.neighbor_uses(st.h(), v, c)) {
      st.assign(v, c);
      ++colored;
    }
  }
  ASSERT_GT(colored, 20);
  const double z1 = z_estimate(st, probe);
  EXPECT_LT(z1, z0);
  EXPECT_NEAR(z0 - z1, colored, colored * 0.5 + 4);
}

TEST(ZEstimate, SparseVertexRejected) {
  color::Params params;
  auto f = ccg::testing::make_planted_fixture(noncabal_spec(96, 16),
                                              params, 13, 8.0);
  auto& st = *f->st;
  (void)st;
  // z_estimate requires a dense vertex.
  graph::PlantedSpec spec = noncabal_spec(64, 8);
  spec.num_sparse = 50;
  spec.sparse_avg_deg = 10;
  auto f2 = ccg::testing::make_planted_fixture(spec, params, 17, 8.0);
  auto& st2 = *f2->st;
  int sparse_v = -1;
  for (int v = 0; v < st2.h().n(); ++v) {
    if (!st2.dc.is_dense(v)) {
      sparse_v = v;
      break;
    }
  }
  ASSERT_GE(sparse_v, 0);
  EXPECT_THROW(z_estimate(st2, sparse_v), ContractViolation);
}

}  // namespace
}  // namespace ccg::color
