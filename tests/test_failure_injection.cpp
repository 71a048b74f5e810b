// Failure injection and adversarial-condition tests: starved bandwidth,
// hostile topologies, label permutations, repeated seeds. The pipeline's
// contract — a validated proper (Delta+1)-coloring with honest charging —
// must survive all of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "baseline/baselines.hpp"
#include "ccg/solver.hpp"
#include "cluster/validate.hpp"
#include "common/failpoint.hpp"
#include "helpers.hpp"
#include "manifest_serving.hpp"
#include "sketch/approx_count.hpp"
#include "color/relays.hpp"
#include "lowdeg/lowdeg.hpp"
#include "svc/service.hpp"

namespace ccg {
namespace {

color::Params tough_params(int n, std::uint64_t seed) {
  auto p = color::Params::defaults_for(n, seed);
  p.eps = 0.2;
  p.use_fingerprint_acd = false;
  p.measure_bits = false;
  return p;
}

graph::PlantedGraph small_mixture(std::uint64_t seed) {
  Rng rng(seed);
  graph::PlantedSpec spec;
  spec.delta = 90;
  spec.num_cliques = 2;
  spec.anti_deg = 2;
  spec.external_deg = 8;
  spec.num_sparse = 120;
  spec.sparse_avg_deg = 25.0;
  return graph::make_planted_acd(spec, rng);
}

TEST(FailureInjection, StarvedBandwidthStillCorrectJustSlower) {
  // B = 8 bits per link per round: every message must be chunked. The
  // result must be identical in correctness, with G-rounds inflated. The
  // ledger's bandwidth is the caller's, so this runs the phase-level form.
  const auto planted = small_mixture(5);
  std::int64_t g_starved = 0, g_normal = 0;
  for (const int bandwidth : {8, 0}) {
    const auto cg = cluster::ClusterGraph::singleton(planted.g);
    net::Ledger ledger(bandwidth > 0 ? bandwidth
                                     : cg.default_bandwidth());
    cluster::Runtime rt(cg, ledger);
    color::State st(rt, tough_params(planted.g.n(), 7));
    lowdeg::run_auto(st);
    const auto res = color::finalize_result(st);
    cluster::check_proper_total(planted.g, res.colors, res.num_colors);
    EXPECT_LE(res.max_bits_per_link_round, ledger.bandwidth());
    if (bandwidth == 8) {
      g_starved = res.g_rounds;
    } else {
      g_normal = res.g_rounds;
    }
  }
  EXPECT_GT(g_starved, g_normal);
}

TEST(FailureInjection, BridgePathWorstCaseTopology) {
  // All inter-cluster traffic of every cluster crosses two endpoints of a
  // long path (Fig. 2's shape): dilation is paid, correctness is not.
  const auto planted = small_mixture(7);
  Rng rng(9);
  cluster::ExpandSpec es;
  es.shape = cluster::ClusterShape::kBridgePath;
  es.size = 10;
  const auto cg = cluster::ClusterGraph::expand(planted.g, es, rng);
  const auto out = testing::solve(Problem::cluster(cg), Algo::kAuto,
                                  tough_params(planted.g.n(), 11));
  ASSERT_TRUE(out.ok()) << out.error.message;
  const auto& res = out.result;
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
  EXPECT_EQ(res.dilation, 9);
  EXPECT_GE(res.g_rounds, res.h_rounds * 9);
}

TEST(FailureInjection, LabelPermutationInvariance) {
  // Relabeling vertices must not affect correctness (ID-priority rules
  // must not depend on label structure).
  const auto planted = small_mixture(13);
  Rng rng(17);
  const auto perm = rng.permutation(planted.g.n());
  graph::Graph relabeled(planted.g.n());
  for (const auto& [u, v] : planted.g.edges()) {
    relabeled.add_edge(perm[static_cast<std::size_t>(u)],
                       perm[static_cast<std::size_t>(v)]);
  }
  relabeled.finalize();
  const auto cg = cluster::ClusterGraph::singleton(relabeled);
  const auto out = testing::solve(Problem::cluster(cg), Algo::kAuto,
                                  tough_params(relabeled.n(), 19));
  ASSERT_TRUE(out.ok()) << out.error.message;
  cluster::check_proper_total(relabeled, out.result.colors,
                              out.result.num_colors);
}

class SeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(SeedSweep, HighDegreePipelineNeverProducesImproperColorings) {
  const int seed = GetParam();
  Rng rng(1000 + seed);
  graph::PlantedSpec spec;
  spec.delta = 110;
  spec.num_cliques = 3;
  spec.anti_deg = seed % 3;  // rotate anti-degree, keeping parity valid
  spec.external_deg = 6 + 2 * (seed % 4);
  if ((spec.anti_deg % 2 == 1) &&
      (spec.delta + 1 - spec.external_deg + spec.anti_deg) % 2 == 1) {
    ++spec.anti_deg;
  }
  const auto planted = graph::make_planted_acd(spec, rng);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  const auto out = testing::solve(
      Problem::cluster(cg), Algo::kHighDegree,
      tough_params(planted.g.n(), static_cast<std::uint64_t>(seed)));
  ASSERT_TRUE(out.ok()) << out.error.message;
  const auto& res = out.result;
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
  // The safety net may fire occasionally but must stay marginal.
  EXPECT_LE(res.fallback_count, planted.g.n() / 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(FailureInjection, ManyParallelLinksDontConfuseDegrees) {
  // 8 parallel links per H-edge: fingerprint dedup must keep estimates on
  // the true H-degree, not the link count.
  Rng rng(23);
  const auto h = graph::gnm(200, 1200, rng);
  cluster::ExpandSpec es;
  es.shape = cluster::ClusterShape::kRandomTree;
  es.size = 5;
  es.links_per_edge = 8;
  const auto cg = cluster::ClusterGraph::expand(h, es, rng);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  sketch::CountOptions opt;
  opt.t = 1500;
  std::vector<sketch::Fingerprint> raw;
  sketch::sample_raw_fingerprints_stream(
      h.n(), opt.t, StreamCtx(rng.next_u64()), nullptr, &raw);
  sketch::CountResult counts;
  sketch::neighborhood_counts_into(
      rt, raw, [](int, int) { return true; }, opt, &counts);
  int close = 0;
  for (int v = 0; v < h.n(); ++v) {
    if (std::abs(counts.estimate[static_cast<std::size_t>(v)] -
                 h.degree(v)) <= 0.35 * std::max(1, h.degree(v))) {
      ++close;
    }
  }
  EXPECT_GT(close, static_cast<int>(0.85 * h.n()));
}

TEST(FailureInjection, ZeroEdgeAndSingletonGraphs) {
  // Degenerate inputs: empty graph, single vertex, two isolated vertices.
  for (const int n : {1, 2, 5}) {
    graph::Graph g(n);
    g.finalize();
    const auto cg = cluster::ClusterGraph::singleton(g);
    const auto out =
        testing::solve(Problem::cluster(cg), Algo::kAuto, tough_params(n, 3));
    ASSERT_TRUE(out.ok()) << out.error.message;
    const auto& res = out.result;
    cluster::check_proper_total(g, res.colors, res.num_colors);
    EXPECT_EQ(res.num_colors, 1);
  }
}

TEST(FailureInjection, DisconnectedConflictGraph) {
  // Two planted blocks with no connection at all (separate components).
  Rng rng(29);
  graph::PlantedSpec spec;
  spec.delta = 60;
  spec.num_cliques = 2;
  spec.anti_deg = 0;
  spec.external_deg = 0;
  spec.num_sparse = 0;
  EXPECT_NO_THROW({
    const auto planted = graph::make_planted_acd(spec, rng);
    const auto cg = cluster::ClusterGraph::singleton(planted.g);
    const auto out = testing::solve(Problem::cluster(cg), Algo::kAuto,
                                    tough_params(planted.g.n(), 31));
    ASSERT_TRUE(out.ok()) << out.error.message;
    cluster::check_proper_total(planted.g, out.result.colors,
                                out.result.num_colors);
  });
}


TEST(FailureInjection, GkFinisherSurvivesStarvedBandwidth) {
  // Bandwidth of 8 bits/link/round: every fingerprint payload and class
  // sweep gets chunked; GK must stay correct, only slower in G-rounds.
  const auto planted = small_mixture(301);
  const auto cg = cluster::ClusterGraph::singleton(planted.g);
  net::Ledger starved(8);
  cluster::Runtime rt(cg, starved);
  auto params = tough_params(planted.g.n(), 303);
  params.finisher = color::Params::Finisher::kGhaffariKuhn;
  color::State st(rt, params);
  lowdeg::run_low_degree(st);
  const auto res = color::finalize_result(st);
  cluster::check_proper_total(planted.g, res.colors, res.num_colors);
  EXPECT_GT(res.g_rounds, res.h_rounds);
}

TEST(FailureInjection, GkFinisherOnBridgePathTopology) {
  // The Fig. 2/3 adversarial layout under the full rounding ladder.
  Rng rng(307);
  const auto planted = small_mixture(311);
  cluster::ExpandSpec es;
  es.shape = cluster::ClusterShape::kBridgePath;
  es.size = 4;
  const auto cg = cluster::ClusterGraph::expand(planted.g, es, rng);
  auto params = tough_params(planted.g.n(), 313);
  params.finisher = color::Params::Finisher::kGhaffariKuhn;
  const auto out =
      testing::solve(Problem::cluster(cg), Algo::kLowDegree, params);
  ASSERT_TRUE(out.ok()) << out.error.message;
  cluster::check_proper_total(planted.g, out.result.colors,
                              out.result.num_colors);
}

TEST(FailureInjection, RelaysUnderAdversarialSeedSweep) {
  // Relay saturation must not depend on lucky sampling: 16 seeds on the
  // same dense cabal with many anti-edges.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    graph::PlantedSpec spec;
    spec.delta = 72;
    spec.num_cliques = 2;
    spec.anti_deg = 6;
    spec.external_deg = 2;
    auto f = testing::make_planted_fixture(
        spec, color::Params::defaults_for(160, seed), seed * 7 + 1);
    const auto& members = f->st->dc.acd.members[0];
    std::vector<std::pair<int, int>> pairs;
    std::vector<char> used(static_cast<std::size_t>(f->st->h().n()), 0);
    for (const int v : members) {
      if (used[static_cast<std::size_t>(v)]) continue;
      for (const int u : members) {
        if (u == v || used[static_cast<std::size_t>(u)]) continue;
        const auto& nb = f->st->h().neighbors(v);
        if (!std::binary_search(nb.begin(), nb.end(), u)) {
          pairs.emplace_back(v, u);
          used[static_cast<std::size_t>(v)] = 1;
          used[static_cast<std::size_t>(u)] = 1;
          break;
        }
      }
      if (pairs.size() >= 12) break;
    }
    if (pairs.empty()) continue;
    const auto res = color::find_relays(*f->st, 0, pairs);
    for (const int r : res.relay) EXPECT_GE(r, 0);
  }
}

TEST(FailureInjection, PowerLawHubsAtTinyBandwidth) {
  // Chung-Lu hub degrees far above the average + starved links: the
  // sparse path and the chunking must absorb both.
  Rng rng(331);
  const auto g = graph::chung_lu(900, 10.0, 2.3, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger starved(8);
  cluster::Runtime rt(cg, starved);
  color::State st(rt, tough_params(g.n(), 337));
  lowdeg::run_auto(st);
  cluster::check_proper_total(g, st.phi.vec(), st.num_colors());
}

// ---- failpoint-driven fault tolerance (src/common/failpoint.hpp) ----
//
// The tests below exercise the serving fault paths: injected faults,
// deadlines, bounded retries, quarantine and graceful degradation.

class Failpoints : public ::testing::Test {
 protected:
  void SetUp() override { fail::disarm_all(); }
  void TearDown() override { fail::disarm_all(); }
};

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TEST_F(Failpoints, ArmSpecStringGrammar) {
  EXPECT_EQ(fail::arm_spec_string("a=throw;b=badalloc;c=delay:25"), 3);
  fail::disarm_all();
  EXPECT_THROW(fail::arm_spec_string("a"), std::invalid_argument);
  EXPECT_THROW(fail::arm_spec_string("a=explode"), std::invalid_argument);
  EXPECT_THROW(fail::arm_spec_string("a=delay:"), std::invalid_argument);
  EXPECT_THROW(fail::arm_spec_string("a=delay:-5"), std::invalid_argument);
}

TEST_F(Failpoints, InjectedThrowSurfacesAsInternalNeverEscapes) {
  Rng rng(11);
  const auto g = graph::gnm(200, 1200, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  fail::arm("solver.fast", {});  // default: throw on every hit
  Solver solver;
  Options opt;
  opt.algo = Algo::kFast;
  const auto out = solver.solve(Problem::cluster(cg), opt);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error.code, ErrorCode::kInternal);
  EXPECT_NE(out.error.message.find("failpoint solver.fast"),
            std::string::npos);
  EXPECT_TRUE(solver.colors().empty());  // no partial colorings leak
  EXPECT_EQ(fail::fire_count("solver.fast"), 1);
  // Disarmed again, the same session serves the instance normally.
  fail::disarm_all();
  const auto ok = solver.solve(Problem::cluster(cg), opt);
  ASSERT_TRUE(ok.ok()) << ok.error.message;
  cluster::check_proper_total(g, solver.colors(), ok.result.num_colors);
}

TEST_F(Failpoints, InjectedBadAllocSurfacesAsInternal) {
  Rng rng(13);
  const auto g = graph::gnm(150, 900, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  fail::ArmSpec spec;
  spec.action = fail::Action::kBadAlloc;
  fail::arm("pipeline.phase.sparse", spec);
  Solver solver;
  Options opt;
  opt.algo = Algo::kHighDegree;
  const auto out = solver.solve(Problem::cluster(cg), opt);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error.code, ErrorCode::kInternal);
  EXPECT_GE(fail::fire_count("pipeline.phase.sparse"), 1);
}

TEST_F(Failpoints, SkipAndTimesWindows) {
  Rng rng(17);
  const auto g = graph::gnm(100, 500, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  fail::ArmSpec spec;
  spec.skip = 1;   // first hit passes
  spec.times = 1;  // second hit fires, then dormant
  fail::arm("solver.fast", spec);
  Solver solver;
  Options opt;
  opt.algo = Algo::kFast;
  EXPECT_TRUE(solver.solve(Problem::cluster(cg), opt).ok());
  EXPECT_FALSE(solver.solve(Problem::cluster(cg), opt).ok());
  EXPECT_TRUE(solver.solve(Problem::cluster(cg), opt).ok());
  EXPECT_EQ(fail::fire_count("solver.fast"), 1);
}

TEST_F(Failpoints, DeadlineInterruptsInjectedDelayWithinBound) {
  // A 10-second spin injected into the pipeline against a 500 ms
  // deadline: the cooperative delay aborts once the solve's CancelToken
  // expires and the next check surfaces kDeadlineExceeded — well within
  // 2x the deadline, never the full delay.
  Rng rng(19);
  const auto g = graph::gnm(200, 1200, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  fail::ArmSpec spec;
  spec.action = fail::Action::kDelayMs;
  spec.delay_ms = 10000;
  fail::arm("solver.fast", spec);
  Solver solver;
  Options opt;
  opt.algo = Algo::kFast;
  opt.deadline_ms = 500;
  const auto t0 = std::chrono::steady_clock::now();
  const auto out = solver.solve(Problem::cluster(cg), opt);
  const double ms = elapsed_ms(t0);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error.code, ErrorCode::kDeadlineExceeded);
  EXPECT_LT(ms, 2.0 * 500) << "deadline must interrupt the injected delay";
  // The quarantine story is the caller's (JobSlot discards the session);
  // the facade itself must stay usable for a fresh attempt.
  fail::disarm_all();
  Options retry = opt;
  retry.deadline_ms = 0;
  EXPECT_TRUE(solver.solve(Problem::cluster(cg), retry).ok());
}

TEST_F(Failpoints, RequestCancelInterruptsMidRun) {
  Rng rng(23);
  const auto g = graph::gnm(200, 1200, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  fail::ArmSpec spec;
  spec.action = fail::Action::kDelayMs;
  spec.delay_ms = 10000;
  fail::arm("solver.fast", spec);
  Solver solver;
  std::thread canceller([&solver] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    solver.request_cancel();
  });
  Options opt;
  opt.algo = Algo::kFast;
  const auto t0 = std::chrono::steady_clock::now();
  const auto out = solver.solve(Problem::cluster(cg), opt);
  canceller.join();
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error.code, ErrorCode::kCancelled);
  EXPECT_LT(elapsed_ms(t0), 5000) << "cancel must not wait out the delay";
}

TEST_F(Failpoints, NegativeDeadlineIsInvalidOptions) {
  Rng rng(27);
  const auto g = graph::gnm(50, 200, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  Solver solver;
  Options opt;
  opt.deadline_ms = -1;
  const auto out = solver.solve(Problem::cluster(cg), opt);
  EXPECT_EQ(out.error.code, ErrorCode::kInvalidOptions);
}

TEST_F(Failpoints, FaultedJobRetriesAndSucceedsDeterministically) {
  // Fault job 1's first attempt only: the failpoint matches its attempt-0
  // seed, the retry draws a fresh deterministic seed that no longer
  // matches, so attempt 1 succeeds — on every scheduler configuration.
  const auto m = svc::parse_manifest_string(
      "seed 42\n"
      "job --gen gnm --n 300 --m 2400 --algo fast --repeat 3\n");
  ASSERT_EQ(m.jobs.size(), 3u);
  server::ServerOptions retry2;
  retry2.max_retries = 2;
  std::string reference;
  for (const int workers : {1, 2, 8}) {
    fail::ArmSpec spec;
    spec.match_arg = m.jobs[1].params_seed;
    fail::arm("svc.job.run", spec);
    const auto served = testing::serve_manifest(m, workers, {}, retry2);
    EXPECT_EQ(fail::fire_count("svc.job.run"), 1);
    const auto rows = testing::report_rows(served.report);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(testing::row_field(rows[1], "ok"), "true") << rows[1];
    EXPECT_EQ(testing::row_field(rows[1], "attempts"), "2");
    EXPECT_EQ(testing::row_field(rows[1], "degraded"), "false");
    EXPECT_EQ(testing::row_field(rows[0], "attempts"), "1");
    EXPECT_EQ(testing::row_field(rows[2], "attempts"), "1");
    EXPECT_EQ(served.aggregate.jobs_failed, 0);
    EXPECT_EQ(served.aggregate.jobs_retried, 1);
    EXPECT_EQ(served.aggregate.jobs_degraded, 0);
    if (reference.empty()) {
      reference = served.report;
    } else {
      ASSERT_EQ(served.report, reference) << "sched_workers " << workers;
    }
  }
}

TEST_F(Failpoints, RetriesExhaustedDegradesToValidColoring) {
  // Every attempt of the only job faults; with degradation on, the job is
  // served by the sequential greedy baseline — a proper (Delta+1)-
  // coloring — and flagged instead of failed.
  const auto m = svc::parse_manifest_string(
      "job --gen gnm --n 300 --m 2400 --algo fast\n");
  const auto inst = svc::build_instance(m.jobs[0]);
  ASSERT_TRUE(inst.error.empty());

  fail::arm("svc.job.run", {});  // matches every attempt
  svc::RunPolicy policy;
  policy.manifest_seed = m.seed;
  policy.max_retries = 2;
  policy.degrade = true;
  svc::JobSlot slot;
  svc::JobResult out;
  slot.run(inst, m.jobs[0], policy, &out);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_TRUE(out.ok);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.code, ErrorCode::kInternal);  // last failure is kept
  EXPECT_EQ(out.uncolored, 0);

  // The coloring the fallback serves: validate it independently.
  const auto& h = inst.cg.h();
  EXPECT_EQ(out.n, h.n());
  EXPECT_EQ(out.num_colors, h.max_degree() + 1);
  const auto colors = baseline::greedy_coloring(h);
  cluster::check_proper_total(h, colors, h.max_degree() + 1);

  // Without degradation the same exhaustion is a hard failure.
  fail::arm("svc.job.run", {});
  policy.degrade = false;
  slot.run(inst, m.jobs[0], policy, &out);
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.degraded);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_EQ(out.code, ErrorCode::kInternal);
}

TEST_F(Failpoints, QuarantinedSlotMatchesFreshSolverBitForBit) {
  // A fault mid-job i may leave the session arena in an arbitrary state.
  // The slot quarantines (cold-rebuilds) the session, so job i+1 on the
  // same slot must be bit-identical to the same job on a brand-new
  // Solver.
  const auto m = svc::parse_manifest_string(
      "seed 7\n"
      "job --gen gnm --n 400 --m 3600 --algo fast\n"
      "job --gen planted --delta 64 --cliques 2 --ext 6 --algo fast\n");
  const auto inst0 = svc::build_instance(m.jobs[0]);
  const auto inst1 = svc::build_instance(m.jobs[1]);

  fail::ArmSpec spec;
  spec.match_arg = m.jobs[0].params_seed;  // fault job 0 only
  fail::arm("solver.fast", spec);

  svc::JobSlot slot;
  svc::JobResult out;
  slot.run(inst0, m.jobs[0], &out);
  ASSERT_FALSE(out.ok);
  ASSERT_EQ(out.code, ErrorCode::kInternal);  // mid-run => quarantined
  slot.run(inst1, m.jobs[1], &out);
  ASSERT_TRUE(out.ok) << out.error;
  const std::vector<int> via_slot = slot.solver().colors();

  Solver fresh;
  Options opt;
  opt.algo = m.jobs[1].algo;
  opt.threads = m.jobs[1].threads;
  opt.seed = m.jobs[1].params_seed;
  const auto ref = fresh.solve(Problem::cluster(inst1.cg), opt);
  ASSERT_TRUE(ref.ok()) << ref.error.message;
  EXPECT_EQ(via_slot, fresh.colors());
}

// The report's job rows, from the "jobs" key up to the aggregate block.
std::string jobs_array(const std::string& report) {
  const std::size_t b = report.find("\"jobs\": [");
  return report.substr(b, report.find("\"aggregate\"") - b);
}

TEST_F(Failpoints, ServedManifestMatchesFreshSlotsAcrossWorkersWithFaults) {
  // The full recovery spectrum in one manifest — a transient fault that
  // retries into success, a persistent fault that degrades, a build
  // failure, and healthy jobs — must still produce byte-identical
  // deterministic reports for every worker count and submission order,
  // and every served job must equal the same job run alone on a fresh
  // JobSlot under the same policy.
  const auto m = svc::parse_manifest_string(
      "seed 99\n"
      "job --gen gnm --n 300 --m 2400 --algo fast --repeat 2\n"
      "job --gen planted --delta 96 --cliques 2 --ext 8 --algo high\n"
      "job --dimacs /nonexistent/ccg-missing.col\n"
      "job --gen cycle --n 120 --algo fast\n");
  ASSERT_EQ(m.jobs.size(), 5u);

  const auto arm_all = [&m] {
    fail::disarm_all();
    // Transient: job 1's attempt-0 seed only.
    fail::ArmSpec transient;
    transient.match_arg = m.jobs[1].params_seed;
    fail::arm("svc.job.run", transient);
    // Persistent: the only --algo high job hits this site every attempt.
    fail::arm("pipeline.phase.acd", {});
  };

  // Reference rows: each job alone on a fresh slot, written by the same
  // row writer at the same nesting as the server's report.
  svc::RunPolicy policy;
  policy.manifest_seed = m.seed;
  policy.max_retries = 1;
  policy.degrade = true;
  arm_all();
  JsonWriter ref;
  ref.begin_object();
  ref.key("jobs").begin_array();
  for (std::size_t i = 0; i < m.jobs.size(); ++i) {
    svc::JobSlot slot;
    svc::JobResult r;
    slot.run(svc::build_instance(m.jobs[i]), m.jobs[i], policy, &r);
    ref.begin_object();
    ref.key("id").value(std::to_string(i));
    svc::job_result_json(ref, m.jobs[i], r, /*include_timing=*/false);
    ref.end_object();
  }
  ref.end_array();
  ref.key("aggregate").null();
  ref.end_object();
  const std::string reference_rows = jobs_array(ref.str());

  server::ServerOptions recover;
  recover.max_retries = 1;
  recover.degrade = true;
  std::string reference;
  for (const int workers : {1, 2, 8}) {
    for (const bool reversed : {false, true}) {
      arm_all();
      const auto served = testing::serve_manifest(
          m, workers,
          reversed ? std::vector<int>{4, 3, 2, 1, 0} : std::vector<int>{},
          recover);
      EXPECT_EQ(jobs_array(served.report), reference_rows)
          << "sched_workers " << workers << " reversed " << reversed;
      EXPECT_EQ(served.aggregate.jobs_failed, 1);    // missing DIMACS
      EXPECT_EQ(served.aggregate.jobs_retried, 2);   // both faults
      EXPECT_EQ(served.aggregate.jobs_degraded, 1);  // the persistent one
      const auto rows = testing::report_rows(served.report);
      ASSERT_EQ(rows.size(), 5u);
      EXPECT_EQ(testing::row_field(rows[1], "ok"), "true");
      EXPECT_EQ(testing::row_field(rows[1], "attempts"), "2");
      EXPECT_EQ(testing::row_field(rows[2], "degraded"), "true");
      EXPECT_EQ(testing::row_field(rows[2], "attempts"), "2");
      EXPECT_EQ(testing::row_field(rows[3], "ok"), "false");
      EXPECT_EQ(testing::row_field(rows[3], "error_code"), "build_failed");
      EXPECT_EQ(testing::row_field(rows[3], "attempts"), "0");
      if (reference.empty()) {
        reference = served.report;
      } else {
        ASSERT_EQ(served.report, reference)
            << "sched_workers " << workers << " reversed " << reversed;
      }
    }
  }
}

TEST_F(Failpoints, PrepareFaultIsContainedToTheInstance) {
  // A fault during instance build must fail that instance's jobs with a
  // structured code, not take down the batch.
  const auto m = svc::parse_manifest_string(
      "job --gen gnm --n 200 --m 800 --algo fast\n");
  fail::arm("svc.prepare", {});
  const auto served = testing::serve_manifest(m, 1);
  const auto rows = testing::report_rows(served.report);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(testing::row_field(rows[0], "ok"), "false");
  EXPECT_EQ(testing::row_field(rows[0], "error_code"), "internal");
  EXPECT_EQ(testing::row_field(rows[0], "attempts"), "0");
  EXPECT_EQ(served.aggregate.jobs_failed, 1);
}

TEST_F(Failpoints, JobDeadlineOverridesBatchDefault) {
  // Job 0 pins --deadline-ms 0 (no deadline) and must survive the
  // injected delay; job 1 inherits the batch default and must miss it.
  const auto m = svc::parse_manifest_string(
      "job --gen gnm --n 200 --m 800 --algo fast --deadline-ms 0\n"
      "job --gen gnm --n 200 --m 800 --algo fast --graph-seed 5\n");
  fail::ArmSpec spec;
  spec.action = fail::Action::kDelayMs;
  spec.delay_ms = 1200;
  spec.match_arg = m.jobs[1].params_seed;
  fail::arm("solver.fast", spec);
  server::ServerOptions deadline;
  deadline.deadline_ms = 300;
  const auto served = testing::serve_manifest(m, 1, {}, deadline);
  const auto rows = testing::report_rows(served.report);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(testing::row_field(rows[0], "ok"), "true") << rows[0];
  EXPECT_EQ(testing::row_field(rows[1], "ok"), "false");
  EXPECT_EQ(testing::row_field(rows[1], "error_code"), "deadline_exceeded");
  EXPECT_EQ(served.aggregate.jobs_failed, 1);
}

}  // namespace
}  // namespace ccg
