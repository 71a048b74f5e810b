// Property-style integration sweeps: every generator x cluster layout x
// seed must yield a proper (Delta+1)-coloring, within bandwidth, with the
// dilation reflected in G-rounds.
#include <gtest/gtest.h>

#include <tuple>

#include "cluster/validate.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"

namespace ccg {
namespace {

struct SweepCase {
  const char* name;
  int delta;
  int cliques;
  int anti;
  int ext;
  int sparse;
  double sparse_deg;
};

class PipelineSweep
    : public ::testing::TestWithParam<
          std::tuple<SweepCase, cluster::ClusterShape, int>> {};

TEST_P(PipelineSweep, ProperAndWithinBandwidth) {
  const auto& [c, shape, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 977 + 3);
  graph::PlantedSpec spec;
  spec.delta = c.delta;
  spec.num_cliques = c.cliques;
  spec.anti_deg = c.anti;
  spec.external_deg = c.ext;
  spec.num_sparse = c.sparse;
  spec.sparse_avg_deg = c.sparse_deg;
  spec.external_to_sparse = c.sparse > 0 ? 0.3 : 0.0;
  const auto planted = graph::make_planted_acd(spec, rng);

  cluster::ExpandSpec es;
  es.shape = shape;
  es.size = shape == cluster::ClusterShape::kSingleton ? 1 : 3;
  es.links_per_edge = 2;
  const auto cg = cluster::ClusterGraph::expand(planted.g, es, rng);

  auto params = color::Params::defaults_for(planted.g.n(),
                                            static_cast<std::uint64_t>(seed));
  params.eps = 0.2;
  params.use_fingerprint_acd = false;
  params.measure_bits = false;
  const auto out = testing::solve(Problem::cluster(cg), Algo::kAuto, params);
  ASSERT_TRUE(out.ok()) << out.error.message;
  const auto& res = out.result;

  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
  EXPECT_EQ(res.num_colors, planted.delta + 1);
  // Bandwidth audit: after chunking, no link ever carries more than B.
  EXPECT_LE(res.max_bits_per_link_round, cg.default_bandwidth());
  // Cost sanity: G-rounds >= H-rounds, scaled by epoch depth when d > 0.
  EXPECT_GE(res.g_rounds, res.h_rounds);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineSweep,
    ::testing::Combine(
        ::testing::Values(
            SweepCase{"noncabal", 120, 3, 2, 14, 150, 30.0},
            SweepCase{"cabal", 100, 3, 2, 4, 0, 0.0},
            SweepCase{"mixed", 80, 2, 0, 10, 200, 25.0},
            SweepCase{"lowdeg", 24, 2, 2, 6, 150, 10.0}),
        ::testing::Values(cluster::ClusterShape::kSingleton,
                          cluster::ClusterShape::kStar,
                          cluster::ClusterShape::kBridgePath),
        ::testing::Values(1, 2, 3)));

// Realistic-workload sweep: community / power-law / uniform / geometric
// topologies, each finished by all three Section 9.4 finishers.
class WorkloadSweep
    : public ::testing::TestWithParam<
          std::tuple<int, color::Params::Finisher>> {};

TEST_P(WorkloadSweep, ProperOnEveryTopologyAndFinisher) {
  const auto& [kind, finisher] = GetParam();
  Rng rng(211 + static_cast<std::uint64_t>(kind));
  graph::Graph g;
  switch (kind) {
    case 0:
      g = graph::caveman(5, 22, 2, rng);
      break;
    case 1:
      g = graph::chung_lu(1200, 14.0, 2.5, rng);
      break;
    case 2:
      g = graph::gnm(1000, 8000, rng);
      break;
    default:
      g = graph::grid(32, 25);
      break;
  }
  const auto cg = cluster::ClusterGraph::singleton(g);
  auto params = color::Params::defaults_for(g.n(), 31 + kind);
  params.finisher = finisher;
  const auto out = testing::solve(Problem::cluster(cg), Algo::kAuto, params);
  ASSERT_TRUE(out.ok()) << out.error.message;
  const auto& res = out.result;
  cluster::check_proper_total(g, res.colors, res.num_colors);
  EXPECT_LE(res.max_bits_per_link_round, cg.default_bandwidth());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, WorkloadSweep,
    ::testing::Combine(
        ::testing::Values(0, 1, 2, 3),
        ::testing::Values(color::Params::Finisher::kRandomizedList,
                          color::Params::Finisher::kLinial,
                          color::Params::Finisher::kGhaffariKuhn)));

TEST(Integration, FingerprintAcdPipelineEndToEnd) {
  // Full pipeline with the *fingerprint* ACD (no oracle): the paper's
  // actual algorithm stack, end to end, bits measured.
  Rng rng(99);
  graph::PlantedSpec spec;
  spec.delta = 120;
  spec.num_cliques = 3;
  spec.anti_deg = 2;
  spec.external_deg = 10;
  spec.num_sparse = 120;
  spec.sparse_avg_deg = 25.0;
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  auto params = color::Params::defaults_for(planted.g.n(), 7);
  params.eps = 0.2;
  params.fingerprint_t = 3000;  // near-exact estimates at this scale
  const auto out =
      testing::solve(Problem::cluster(cg), Algo::kHighDegree, params);
  ASSERT_TRUE(out.ok()) << out.error.message;
  const auto& res = out.result;
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
  EXPECT_LE(res.max_bits_per_link_round, cg.default_bandwidth());
}

TEST(Integration, PartitionLayoutEndToEnd) {
  // Definition 3.1 direction: partition a grid network, derive H, color H.
  Rng rng(101);
  const auto g = graph::grid(24, 24);
  const auto assign = cluster::random_partition(g, 96, rng);
  const auto cg = cluster::ClusterGraph::from_partition(g, assign);
  auto params = color::Params::defaults_for(cg.num_clusters(), 9);
  params.use_fingerprint_acd = false;
  const auto out = testing::solve(Problem::cluster(cg), Algo::kAuto, params);
  ASSERT_TRUE(out.ok()) << out.error.message;
  const auto& res = out.result;
  cluster::check_proper_total(cg.h(), res.colors, res.num_colors);
}

TEST(Integration, DilationScalesGRounds) {
  // Same H, growing cluster diameter: H-rounds stay put, G-rounds grow
  // linearly in d (Section 3.2).
  Rng rng(103);
  graph::PlantedSpec spec;
  spec.delta = 60;
  spec.num_cliques = 2;
  spec.anti_deg = 0;
  spec.external_deg = 8;
  const auto planted = graph::make_planted_acd(spec, rng);
  std::vector<std::int64_t> g_rounds;
  std::vector<std::int64_t> h_rounds;
  for (const int size : {1, 4, 8}) {
    Rng local(7);
    cluster::ExpandSpec es;
    es.shape = size == 1 ? cluster::ClusterShape::kSingleton
                         : cluster::ClusterShape::kPath;
    es.size = size;
    const auto cg = cluster::ClusterGraph::expand(planted.g, es, local);
    auto params = color::Params::defaults_for(planted.g.n(), 11);
    params.use_fingerprint_acd = false;
    params.measure_bits = false;
    const auto out = testing::solve(Problem::cluster(cg), Algo::kAuto, params);
    ASSERT_TRUE(out.ok()) << out.error.message;
    const auto& res = out.result;
    cluster::check_proper_total(planted.g, res.colors, res.num_colors);
    g_rounds.push_back(res.g_rounds);
    h_rounds.push_back(res.h_rounds);
  }
  EXPECT_GT(g_rounds[1], g_rounds[0]);
  EXPECT_GT(g_rounds[2], g_rounds[1]);
}

TEST(Integration, SeedsReproduce) {
  Rng rng(105);
  graph::PlantedSpec spec;
  spec.delta = 70;
  spec.num_cliques = 2;
  spec.anti_deg = 2;
  spec.external_deg = 14;
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  auto run = [&](std::uint64_t seed) {
    auto params = color::Params::defaults_for(planted.g.n(), seed);
    params.use_fingerprint_acd = false;
    params.measure_bits = false;
    return testing::solve(Problem::cluster(cg), Algo::kAuto, params);
  };
  const auto a = run(42);
  const auto b = run(42);
  ASSERT_TRUE(a.ok()) << a.error.message;
  ASSERT_TRUE(b.ok()) << b.error.message;
  EXPECT_EQ(a.result.colors, b.result.colors);
  EXPECT_EQ(a.result.h_rounds, b.result.h_rounds);
}

}  // namespace
}  // namespace ccg
