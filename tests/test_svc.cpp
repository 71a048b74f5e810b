// Manifests (src/svc/) served the way ccg_batch serves them, on an
// in-process server: manifest parsing, proper colorings through both
// serving algorithms, slot reset-and-reuse correctness, the manifest
// path's promises (no sheds, rows in manifest order), and the headline
// determinism contract — identical manifest => byte-identical
// deterministic report for every scheduler-worker count and submission
// order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "ccg/ccg.hpp"
#include "manifest_serving.hpp"

namespace ccg::svc {
namespace {

using testing::report_rows;
using testing::row_field;
using testing::serve_manifest;

int env_threads() {
  if (const char* env = std::getenv("CCG_TEST_THREADS")) {
    return std::max(1, std::atoi(env));
  }
  return 1;
}

// Mixed workload: fast jobs with a shared instance, a high-degree
// pipeline job (planted), a low-degree pipeline job (sparse gnm), and a
// deterministic-recipe instance (grid). Default intra-job threads honor
// CCG_TEST_THREADS so the TSan CI job drives the two-level parallelism.
std::string test_manifest_text() {
  return "seed 91\n"
         "threads " +
         std::to_string(env_threads()) +
         "\n"
         "job --gen gnm --n 400 --m 3000 --algo fast --repeat 3\n"
         "job --gen planted --delta 130 --cliques 3 --ext 8 --anti 2 "
         "--oracle --eps 0.2\n"
         "job --gen gnm --n 300 --m 900\n"
         "job --gen caveman --cliques 5 --size 18 --bridges 2 --algo "
         "fast\n"
         "job --gen grid --w 12 --h 9 --algo fast --repeat 2\n";
}

TEST(SvcManifest, ParsesDirectivesAndExpandsRepeats) {
  const auto m = parse_manifest_string(test_manifest_text());
  EXPECT_EQ(m.seed, 91u);
  ASSERT_EQ(m.jobs.size(), 8u);  // 3 + 1 + 1 + 1 + 2
  for (std::size_t i = 0; i < m.jobs.size(); ++i) {
    EXPECT_EQ(m.jobs[i].index, static_cast<int>(i));
    EXPECT_EQ(m.jobs[i].threads, env_threads());
  }
  // Repeats share one instance key but draw distinct derived seeds.
  EXPECT_EQ(m.jobs[0].key, m.jobs[1].key);
  EXPECT_EQ(m.jobs[0].key, m.jobs[2].key);
  EXPECT_NE(m.jobs[0].params_seed, m.jobs[1].params_seed);
  EXPECT_EQ(m.jobs[6].key, m.jobs[7].key);  // grid repeat
  EXPECT_EQ(m.jobs[0].algo, Algo::kFast);
  EXPECT_EQ(m.jobs[3].algo, Algo::kAuto);
  EXPECT_TRUE(m.jobs[3].oracle);
  EXPECT_DOUBLE_EQ(m.jobs[3].eps, 0.2);
}

TEST(SvcManifest, SeedsAreAPureFunctionOfManifestSeedAndIndex) {
  const auto a = parse_manifest_string(test_manifest_text());
  const auto b = parse_manifest_string(test_manifest_text());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].params_seed, b.jobs[i].params_seed);
    EXPECT_EQ(a.jobs[i].params_seed, derive_job_seed(91, a.jobs[i].index));
  }
  // Different manifest seed -> different streams.
  EXPECT_NE(derive_job_seed(91, 0), derive_job_seed(92, 0));
  EXPECT_NE(derive_job_seed(91, 0), derive_job_seed(91, 1));
  // Explicit seeds pin the stream and step by repeat ordinal.
  const auto e = parse_manifest_string(
      "job --gen cycle --n 50 --seed 1000 --repeat 2 --algo fast\n");
  ASSERT_EQ(e.jobs.size(), 2u);
  EXPECT_EQ(e.jobs[0].params_seed, 1000u);
  EXPECT_EQ(e.jobs[1].params_seed, 1001u);
}

TEST(SvcManifest, RejectsMalformedInput) {
  EXPECT_THROW(parse_manifest_string("frobnicate 3\n"), ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --frob 3\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen nosuchgen\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --n 12abc\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --n\n"), ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --layout blorp\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --algo wat\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --repeat 0\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --seed -3\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("seed\n"), ManifestError);
  EXPECT_THROW(parse_manifest_string("job n 5\n"), ManifestError);
  // A late `seed` would split graph seeds (snapshotted per job line)
  // from params seeds (derived from the final value) — rejected.
  EXPECT_THROW(
      parse_manifest_string("job --gen cycle --n 30\nseed 9\n"),
      ManifestError);
}

TEST(SvcManifest, InstanceKeysKeepFullRealPrecision) {
  const auto key_of = [](double p) {
    JobSpec j;
    j.gen = "gnp";
    j.gargs.p = p;
    return instance_key(j);
  };
  // Distinct probabilities beyond 6 significant digits must not alias to
  // one cached instance.
  EXPECT_NE(key_of(0.01234567), key_of(0.01234572));
  EXPECT_EQ(key_of(0.25), key_of(0.25));
}

TEST(SvcBatch, ProgrammaticUnknownLayoutFailsLoudly) {
  // Programmatic builders bypass the parser's validation; the instance
  // builder must still reject a bad layout instead of guessing a shape.
  Manifest m;
  JobSpec j;
  j.gen = "cycle";
  j.gargs.n = 30;
  j.algo = Algo::kFast;
  j.layout = "stars";  // typo
  j.key = instance_key(j);
  m.jobs.push_back(j);
  finalize_job_seeds(m);
  const auto rows = report_rows(serve_manifest(m, 1).report);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(row_field(rows[0], "ok"), "false");
  EXPECT_NE(row_field(rows[0], "error").find("unknown layout"),
            std::string::npos);
}

TEST(SvcBatch, AllJobsColorProperly) {
  const auto m = parse_manifest_string(test_manifest_text());
  const auto rows = report_rows(serve_manifest(m, 2).report);
  ASSERT_EQ(rows.size(), m.jobs.size());
  for (const auto& row : rows) {
    EXPECT_EQ(row_field(row, "ok"), "true") << row;
    EXPECT_EQ(row_field(row, "uncolored"), "0") << row;
    EXPECT_EQ(std::stoi(row_field(row, "num_colors")),
              std::stoi(row_field(row, "delta")) + 1)
        << row;
    EXPECT_GT(std::stoll(row_field(row, "h_rounds")), 0) << row;
  }
  // The planted job went down the high-degree pipeline: it found cliques.
  EXPECT_GT(std::stoi(row_field(rows[3], "num_cliques")), 0);
}

TEST(SvcBatch, ReportBitIdenticalAcrossSchedulerWorkers) {
  const auto m = parse_manifest_string(test_manifest_text());
  std::string reference;
  for (const int workers : {1, 2, 8}) {
    const auto json = serve_manifest(m, workers).report;
    if (reference.empty()) {
      reference = json;
    } else {
      ASSERT_EQ(json, reference) << "sched_workers " << workers;
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(SvcBatch, ReportBitIdenticalAcrossSubmissionOrders) {
  const auto m = parse_manifest_string(test_manifest_text());
  const int n = static_cast<int>(m.jobs.size());

  std::vector<std::vector<int>> orders;
  std::vector<int> reversed(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    reversed[static_cast<std::size_t>(i)] = n - 1 - i;
  }
  orders.push_back(reversed);
  std::vector<int> rotated(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    rotated[static_cast<std::size_t>(i)] = (i + 3) % n;
  }
  orders.push_back(rotated);

  const auto ref_json = serve_manifest(m, 2).report;
  for (const auto& order : orders) {
    ASSERT_EQ(serve_manifest(m, 2, order).report, ref_json);
  }
}

TEST(SvcBatch, TimingModeOnlyAddsTimingFields) {
  const auto m = parse_manifest_string(
      "job --gen cycle --n 60 --algo fast\n");
  server::Server srv(server::manifest_server_options(m, {}));
  ASSERT_EQ(server::submit_manifest_job(srv, m, 0),
            server::Server::Admission::kAccepted);
  const auto timed = srv.report_json(/*include_timing=*/true);
  const auto det = srv.report_json(/*include_timing=*/false);
  for (const char* field : {"\"wall_ns\"", "\"workers\"", "\"slo\""}) {
    EXPECT_NE(timed.find(field), std::string::npos) << field;
    EXPECT_EQ(det.find(field), std::string::npos) << field;
  }
}

TEST(SvcBatch, FailedInstanceFailsItsJobsAndSparesTheRest) {
  const auto m = parse_manifest_string(
      "job --dimacs /nonexistent/instance.col --algo fast\n"
      "job --gen cycle --n 40 --algo fast\n");
  const auto served = serve_manifest(m, 1);
  const auto rows = report_rows(served.report);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(row_field(rows[0], "ok"), "false");
  EXPECT_FALSE(row_field(rows[0], "error").empty());
  EXPECT_EQ(row_field(rows[1], "ok"), "true") << rows[1];
  EXPECT_EQ(served.aggregate.jobs_failed, 1);
  // Failure text is deterministic, so the report contract still holds.
  EXPECT_EQ(serve_manifest(m, 8).report, served.report);
}

TEST(SvcBatch, RecipesOutsideAGeneratorsDomainAreInvalidProblems) {
  // A generator's contract failure on the recipe's own arguments is bad
  // input, not a library fault: invalid_problem, never internal.
  const auto m = parse_manifest_string(
      "job --gen chunglu --n 100 --gamma 1.5 --algo fast\n"
      "job --gen gnm --n 10 --algo fast\n"
      "job --gen caveman --cliques 1 --algo fast\n"
      "job --gen planted --delta 4 --cliques 2 --ext 12 --anti 2 "
      "--algo fast\n");
  const auto rows = report_rows(serve_manifest(m, 1).report);
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& row : rows) {
    EXPECT_EQ(row_field(row, "ok"), "false") << row;
    EXPECT_EQ(row_field(row, "error_code"), "invalid_problem") << row;
  }
}

TEST(SvcBatch, ManifestDeeperThanTheDefaultQueueNeverSheds) {
  // 300 jobs against the server's default depth of 256:
  // manifest_server_options sizes the admission bound to the manifest,
  // so every job is accepted and served, however far submission runs
  // ahead of the one worker.
  const auto m = parse_manifest_string(
      "job --gen gnm --n 300 --m 2400 --algo fast --repeat 300\n");
  ASSERT_GT(m.jobs.size(), 256u);
  EXPECT_EQ(server::manifest_server_options(m, {}).queue_depth, 300);
  const auto served = serve_manifest(m, 1);
  EXPECT_EQ(served.shed, 0u);
  EXPECT_EQ(served.aggregate.num_jobs, 300);
  EXPECT_EQ(served.aggregate.ok_jobs, 300);
  EXPECT_EQ(report_rows(served.report).size(), 300u);
}

TEST(SvcBatch, RowsFollowManifestOrder) {
  // Ids are manifest indices zero-padded to one width, so the id-ordered
  // report lists job 10 after job 9, whatever the submission order.
  const auto m = parse_manifest_string(
      "seed 5\n"
      "job --gen cycle --n 30 --algo fast --repeat 6\n"
      "job --gen grid --w 5 --h 4 --algo fast --repeat 6\n");
  ASSERT_EQ(m.jobs.size(), 12u);
  std::vector<int> reversed(m.jobs.size());
  for (std::size_t i = 0; i < reversed.size(); ++i) {
    reversed[i] = static_cast<int>(reversed.size() - 1 - i);
  }
  const auto report = serve_manifest(m, 2, reversed).report;
  const auto rows = report_rows(report);
  ASSERT_EQ(rows.size(), m.jobs.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string id = (i < 10 ? "0" : "") + std::to_string(i);
    EXPECT_EQ(row_field(rows[i], "id"), id);
    EXPECT_EQ(row_field(rows[i], "key"), m.jobs[i].key) << id;
    EXPECT_EQ(row_field(rows[i], "seed"),
              std::to_string(m.jobs[i].params_seed))
        << id;
  }
  EXPECT_EQ(serve_manifest(m, 1).report, report);
}

TEST(SvcBatch, EmptyManifestReportsNoJobs) {
  const auto m = parse_manifest_string("seed 3\n");
  const auto served = serve_manifest(m, 2);
  EXPECT_EQ(served.aggregate.num_jobs, 0);
  EXPECT_NE(served.report.find("\"num_jobs\": 0"), std::string::npos);
  EXPECT_TRUE(report_rows(served.report).empty());
}

TEST(SvcSlot, ReusedSlotMatchesFreshSlots) {
  // One slot serving the whole stream (scheduler-worker count 1) must
  // produce exactly what per-job fresh slots produce: State::reset /
  // Ledger::reset / Runtime::rebind leak nothing across job boundaries.
  auto m = parse_manifest_string(
      "seed 17\n"
      "job --gen gnm --n 350 --m 2600 --algo fast\n"
      "job --gen planted --delta 120 --cliques 3 --ext 8 --anti 2 "
      "--oracle --eps 0.2\n"
      "job --gen gnm --n 350 --m 2600 --algo fast\n");
  std::vector<Instance> instances;
  for (const auto& job : m.jobs) instances.push_back(build_instance(job));

  JobSlot reused;
  std::vector<JobResult> warm(m.jobs.size());
  for (std::size_t i = 0; i < m.jobs.size(); ++i) {
    reused.run(instances[i], m.jobs[i], &warm[i]);
  }
  for (std::size_t i = 0; i < m.jobs.size(); ++i) {
    JobSlot fresh;
    JobResult fr;
    fresh.run(instances[i], m.jobs[i], &fr);
    EXPECT_TRUE(warm[i].ok);
    EXPECT_EQ(warm[i].ok, fr.ok) << "job " << i;
    EXPECT_EQ(warm[i].h_rounds, fr.h_rounds) << "job " << i;
    EXPECT_EQ(warm[i].g_rounds, fr.g_rounds) << "job " << i;
    EXPECT_EQ(warm[i].fallback_count, fr.fallback_count) << "job " << i;
    EXPECT_EQ(warm[i].retry_count, fr.retry_count) << "job " << i;
    EXPECT_EQ(warm[i].num_cliques, fr.num_cliques) << "job " << i;
    EXPECT_EQ(warm[i].num_cabals, fr.num_cabals) << "job " << i;
    EXPECT_EQ(warm[i].max_bits_per_link_round, fr.max_bits_per_link_round)
        << "job " << i;
  }
  // Jobs 0 and 2 share instance and differ only in derived seed: they
  // must NOT be identical runs (the stream really is per-index).
  EXPECT_NE(m.jobs[0].params_seed, m.jobs[2].params_seed);
}

TEST(SvcBatch, IntraJobThreadCountDoesNotChangeTheReport) {
  // Two-level determinism: the same manifest at intra-job threads 1 vs 4
  // yields the same deterministic report (PR 2/3 engine guarantee carried
  // through the service).
  const auto text_with = [](int threads) {
    return "seed 5\nthreads " + std::to_string(threads) +
           "\n"
           "job --gen planted --delta 120 --cliques 3 --ext 8 --anti 2 "
           "--oracle --eps 0.2\n"
           "job --gen gnm --n 300 --m 2400 --algo fast --repeat 2\n";
  };
  const auto m1 = parse_manifest_string(text_with(1));
  const auto m4 = parse_manifest_string(text_with(4));
  const auto j1 = serve_manifest(m1, 1).report;
  auto j4 = serve_manifest(m4, 1).report;
  // The reports differ only in the recorded threads field.
  const auto fix = [](std::string s) {
    std::size_t pos = 0;
    while ((pos = s.find("\"threads\": 4", pos)) != std::string::npos) {
      s.replace(pos, 12, "\"threads\": 1");
    }
    return s;
  };
  EXPECT_EQ(j1, fix(j4));
}

TEST(SvcVirtualModes, ManifestParsesModesAndKeysThem) {
  const auto m = parse_manifest_string(
      "seed 53\n"
      "job --gen grid --w 8 --h 8 --mode edge --algo fast\n"
      "job --gen grid --w 8 --h 8 --mode edge\n"
      "job --gen grid --w 8 --h 8\n"
      "job --gen gnm --n 150 --m 450 --mode dist2 --repeat 2\n"
      "job --gen gnm --n 150 --m 450\n");
  ASSERT_EQ(m.jobs.size(), 6u);
  EXPECT_EQ(m.jobs[0].mode, JobMode::kEdge);
  EXPECT_EQ(m.jobs[2].mode, JobMode::kCluster);
  EXPECT_EQ(m.jobs[3].mode, JobMode::kDist2);
  // Mode is part of instance identity: edge jobs share one line graph,
  // but never an instance with the plain-cluster job on the same recipe.
  EXPECT_EQ(m.jobs[0].key, m.jobs[1].key);
  EXPECT_NE(m.jobs[1].key, m.jobs[2].key);
  EXPECT_EQ(m.jobs[3].key, m.jobs[4].key);
  EXPECT_NE(m.jobs[3].key, m.jobs[5].key);

  // Virtual modes define their own network; layouts and bad names fail
  // at parse time, like every numeric range.
  EXPECT_THROW(parse_manifest_string("job --gen gnm --mode blorp\n"),
               ManifestError);
  EXPECT_THROW(
      parse_manifest_string("job --gen gnm --mode edge --layout star\n"),
      ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --eps 1.5\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --threads -2\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnm --n -5\n"),
               ManifestError);
  EXPECT_THROW(parse_manifest_string("job --gen gnp --p 1.5\n"),
               ManifestError);
}

TEST(SvcVirtualModes, EdgeAndDist2JobsColorProperlyAndDeterministically) {
  const auto m = parse_manifest_string(
      "seed 53\n"
      "job --gen grid --w 8 --h 8 --mode edge --algo fast\n"
      "job --gen grid --w 8 --h 8 --mode edge\n"
      "job --gen gnm --n 150 --m 450 --mode dist2 --repeat 2\n"
      "job --gen gnm --n 150 --m 450 --algo low\n");
  const auto rows = report_rows(serve_manifest(m, 2).report);
  ASSERT_EQ(rows.size(), 5u);
  for (const auto& row : rows) {
    EXPECT_EQ(row_field(row, "ok"), "true") << row;
    EXPECT_EQ(row_field(row, "uncolored"), "0") << row;
    EXPECT_GT(std::stoll(row_field(row, "h_rounds")), 0) << row;
  }
  // Line graph of the 8x8 grid: one H-vertex per grid edge; c = 1.
  EXPECT_EQ(row_field(rows[0], "n"), std::to_string(2 * 8 * 7));
  EXPECT_EQ(row_field(rows[0], "congestion"), "1");
  // Distance-2: H = G^2 over the same vertex set; c = 2.
  EXPECT_EQ(row_field(rows[2], "n"), "150");
  EXPECT_EQ(row_field(rows[2], "congestion"), "2");
  EXPECT_EQ(row_field(rows[4], "congestion"), "1");

  // Programmatic builders that skip the parser still cannot pair a
  // virtual mode with a cluster layout: the instance build fails loudly
  // instead of silently ignoring the expansion.
  {
    Manifest bypass;
    JobSpec j;
    j.gen = "cycle";
    j.gargs.n = 30;
    j.mode = JobMode::kEdge;
    j.layout = "star";
    j.algo = Algo::kFast;
    j.key = instance_key(j);
    bypass.jobs.push_back(j);
    finalize_job_seeds(bypass);
    const auto r = report_rows(serve_manifest(bypass, 1).report);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(row_field(r[0], "ok"), "false");
    EXPECT_NE(row_field(r[0], "error").find("singleton"), std::string::npos)
        << r[0];
  }

  // The headline determinism contract extends to virtual-mode jobs.
  std::string reference;
  for (const int workers : {1, 2, 8}) {
    const auto json = serve_manifest(m, workers).report;
    if (reference.empty()) {
      reference = json;
    } else {
      ASSERT_EQ(json, reference) << "sched_workers " << workers;
    }
  }
}

}  // namespace
}  // namespace ccg::svc
