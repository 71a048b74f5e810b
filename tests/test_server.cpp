// Serving subsystem (src/server/): protocol parsing against the shared
// manifest error model (fuzz corpus included), LRU cache semantics and
// single-flight builds, admission-control shedding, a disabled result
// cache, and the serving determinism contract —
// the drained no-timing report is byte-identical for every worker count,
// client interleaving, steal schedule and cache state, with faults,
// retries and degradation armed.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.hpp"
#include "server/net.hpp"

namespace ccg::server {
namespace {

int env_threads() {
  if (const char* env = std::getenv("CCG_TEST_THREADS")) {
    return std::max(1, std::atoi(env));
  }
  return 1;
}

svc::JobLineDefaults test_defaults() {
  return svc::JobLineDefaults{env_threads(), /*repeat=*/1,
                              /*graph_seed=*/404,
                              /*allow_repeat=*/false};
}

Request parse_ok(const std::string& line, int lineno = 1) {
  Request req;
  EXPECT_TRUE(parse_request(line, lineno, test_defaults(), &req)) << line;
  return req;
}

// ---------------------------------------------------------------------
// Protocol parsing
// ---------------------------------------------------------------------

TEST(ServerProtocol, ParsesEveryRequestKind) {
  const auto job = parse_ok("job a1 --gen gnm --n 100 --m 300 --algo fast");
  EXPECT_EQ(job.kind, RequestKind::kJob);
  EXPECT_EQ(job.id, "a1");
  EXPECT_EQ(job.job.algo, Algo::kFast);
  EXPECT_EQ(job.job.gargs.n, 100);
  EXPECT_EQ(job.job.threads, env_threads());
  EXPECT_EQ(job.job.graph_seed, 404u);

  EXPECT_EQ(parse_ok("drain").kind, RequestKind::kDrain);
  EXPECT_EQ(parse_ok("stats").kind, RequestKind::kStats);
  EXPECT_EQ(parse_ok("quit").kind, RequestKind::kQuit);

  const auto rep = parse_ok("report");
  EXPECT_EQ(rep.kind, RequestKind::kReport);
  EXPECT_TRUE(rep.timing);
  const auto repnt = parse_ok("report notiming");
  EXPECT_EQ(repnt.kind, RequestKind::kReport);
  EXPECT_FALSE(repnt.timing);
}

TEST(ServerProtocol, BlankAndCommentLinesAreSkipped) {
  Request req;
  EXPECT_FALSE(parse_request("", 1, test_defaults(), &req));
  EXPECT_FALSE(parse_request("   ", 2, test_defaults(), &req));
  EXPECT_FALSE(parse_request("# a comment", 3, test_defaults(), &req));
  // Trailing comments are stripped like in manifests.
  EXPECT_EQ(parse_ok("drain  # flush now").kind, RequestKind::kDrain);
}

TEST(ServerProtocol, IdRules) {
  // The full charset and the length boundary are accepted...
  EXPECT_EQ(parse_ok("job A-z_0.9:x --gen gnm --n 50").id, "A-z_0.9:x");
  const std::string id64(64, 'a');
  EXPECT_EQ(parse_ok("job " + id64 + " --gen gnm --n 50").id, id64);
  // ...one past it and anything outside the charset are not.
  Request req;
  EXPECT_THROW(parse_request("job " + std::string(65, 'a') + " --gen gnm",
                             1, test_defaults(), &req),
               svc::ManifestError);
  EXPECT_THROW(
      parse_request("job sp ace --gen gnm", 1, test_defaults(), &req),
      svc::ManifestError);
}

TEST(ServerProtocol, BadLinesRaiseSharedErrorModel) {
  Request req;
  try {
    parse_request("job a --gen gnm --repeat 2", 7, test_defaults(), &req);
    FAIL() << "expected ManifestError";
  } catch (const svc::ManifestError& e) {
    // Same "line N: ..." error model as the batch manifest parser.
    EXPECT_EQ(std::string(e.what()).rfind("line 7:", 0), 0u) << e.what();
  }
  EXPECT_THROW(parse_request("flush", 1, test_defaults(), &req),
               svc::ManifestError);
  EXPECT_THROW(parse_request("drain now", 1, test_defaults(), &req),
               svc::ManifestError);
  EXPECT_THROW(parse_request("report full", 1, test_defaults(), &req),
               svc::ManifestError);
}

TEST(ServerProtocol, CorpusBadLinesAllThrow) {
  std::ifstream f(CCG_SOURCE_DIR "/tests/corpus/bad_server_lines.txt");
  ASSERT_TRUE(f.is_open()) << "bad_server_lines.txt corpus not found";
  std::string line;
  int lineno = 0, checked = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty()) continue;
    Request req;
    EXPECT_THROW(parse_request(line, lineno, test_defaults(), &req),
                 svc::ManifestError)
        << "corpus line " << lineno << ": " << line;
    ++checked;
  }
  EXPECT_GE(checked, 20);
}

TEST(ServerProtocol, TruncationFuzzNeverCrashes) {
  // Every prefix of a valid request must parse, skip, or raise the
  // shared error — never crash or loop.
  const std::string full =
      "job a1 --gen planted --delta 90 --cliques 3 --ext 8 --anti 2 "
      "--oracle --eps 0.2 --algo high --seed 42 --deadline-ms 100";
  for (std::size_t len = 0; len <= full.size(); ++len) {
    Request req;
    try {
      parse_request(full.substr(0, len), 1, test_defaults(), &req);
    } catch (const svc::ManifestError&) {
      // acceptable outcome for a truncated line
    }
  }
}

TEST(ServerProtocol, SeedDerivation) {
  // FNV-1a 64 pinned vectors: the id hash is a stable wire-level
  // contract (it keys both the seed stream and the retry stream).
  EXPECT_EQ(id_hash(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(id_hash("a"), 0xAF63DC4C8601EC8CULL);
  // Serve seeds are pure functions of (server seed, id), distinct across
  // both coordinates.
  EXPECT_EQ(derive_serve_seed(1, "a1"), derive_serve_seed(1, "a1"));
  EXPECT_NE(derive_serve_seed(1, "a1"), derive_serve_seed(1, "a2"));
  EXPECT_NE(derive_serve_seed(1, "a1"), derive_serve_seed(2, "a1"));
}

// ---------------------------------------------------------------------
// LRU cache
// ---------------------------------------------------------------------

std::size_t string_bytes(const std::string& s) { return s.size(); }

TEST(ServerCache, LruEvictsByByteBudget) {
  LruCache<std::string> c(10, &string_bytes);
  c.put("a", std::make_shared<const std::string>("xxxxx"));  // 5 bytes
  c.put("b", std::make_shared<const std::string>("yyyyy"));  // 5 bytes
  ASSERT_NE(c.get("a"), nullptr);  // bump "a" to MRU
  c.put("c", std::make_shared<const std::string>("zzzzz"));  // evicts "b"
  EXPECT_NE(c.get("a"), nullptr);
  EXPECT_EQ(c.get("b"), nullptr);
  EXPECT_NE(c.get("c"), nullptr);
  const auto s = c.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, 10u);
}

TEST(ServerCache, OversizedValueIsNotCached) {
  LruCache<std::string> c(4, &string_bytes);
  c.put("big", std::make_shared<const std::string>("xxxxx"));
  EXPECT_EQ(c.get("big"), nullptr);
  EXPECT_EQ(c.stats().entries, 0u);
}

TEST(ServerCache, ZeroBudgetDisables) {
  LruCache<std::string> c(0, &string_bytes);
  EXPECT_FALSE(c.enabled());
  c.put("a", std::make_shared<const std::string>("v"));
  EXPECT_EQ(c.get("a"), nullptr);
  int builds = 0;
  const auto v = c.get_or_build("a", [&] {
    ++builds;
    return std::make_shared<const std::string>("built");
  });
  EXPECT_EQ(*v, "built");
  EXPECT_EQ(builds, 1);  // built fresh, not shared
}

TEST(ServerCache, SingleFlightBuildsOnce) {
  LruCache<std::string> c(1 << 20, &string_bytes);
  std::atomic<int> builds{0};
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const std::string>> got(4);
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      got[static_cast<std::size_t>(i)] = c.get_or_build("k", [&] {
        builds.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return std::make_shared<const std::string>("value");
      });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& v : got) {
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, "value");
    EXPECT_EQ(v.get(), got[0].get());  // everyone shares one build
  }
  const auto s = c.stats();
  EXPECT_EQ(s.hits + s.misses, 4u);
  EXPECT_GE(s.misses, 1u);
}

// What an instance must at least be charged: the CSR of H and, when the
// machine graph is not H, its CSR and the links (one offset per H-edge and
// one 8-byte machine pair per G-link). A singleton stores no links: its
// links are H's edges.
std::size_t cluster_graph_floor(const cluster::ClusterGraph& cg) {
  const auto csr = [](const graph::Graph& g) {
    return static_cast<std::size_t>(2 * g.m()) * sizeof(std::int32_t);
  };
  std::size_t b = csr(cg.h());
  if (&cg.machines() == &cg.h()) return b;
  b += csr(cg.machines()) +
       static_cast<std::size_t>(cg.h().m()) * sizeof(std::int64_t);
  for (const auto& [u, v] : cg.h().edges()) {
    b += static_cast<std::size_t>(cg.link_count(u, v)) *
         sizeof(std::pair<int, int>);
  }
  return b;
}

TEST(ServerCache, InstanceBytesChargeTheWholeClusterGraph) {
  for (const char* flags :
       {"--gen planted --delta 60 --cliques 3 --ext 6 --anti 2",
        "--gen planted --delta 60 --cliques 3 --ext 6 --anti 2 "
        "--layout star --cluster-size 4 --links-per-edge 2"}) {
    const auto job = svc::parse_job_flags(flags);
    const auto inst = svc::build_instance(job);
    ASSERT_TRUE(inst.error.empty()) << inst.error;
    const std::size_t heap = inst.cg.heap_bytes();
    EXPECT_GE(heap, cluster_graph_floor(inst.cg)) << flags;
    EXPECT_GE(instance_bytes(inst), heap) << flags;
    // Below the instance's heap the cache refuses it; above, it keeps it.
    for (const std::size_t budget : {heap - 1, 2 * instance_bytes(inst)}) {
      CacheBudgets budgets;
      budgets.instance_bytes = budget;
      ServeCache cache(budgets);
      cache.instance_for(job);
      EXPECT_EQ(cache.instances.stats().entries, budget > heap ? 1u : 0u)
          << flags << " budget " << budget;
    }
  }
  const auto dist2 = svc::build_instance(
      svc::parse_job_flags("--gen grid --w 8 --h 6 --mode dist2"));
  ASSERT_TRUE(dist2.error.empty()) << dist2.error;
  ASSERT_TRUE(dist2.vg.has_value());
  EXPECT_GE(instance_bytes(dist2),
            cluster_graph_floor(dist2.vg->representation()));
}

// ---------------------------------------------------------------------
// Scheduler: admission, stealing, caches
// ---------------------------------------------------------------------

Task make_task(const std::string& id, const std::string& flags,
               std::uint64_t server_seed = 404) {
  Request req;
  const bool parsed = parse_request(
      "job " + id + " " + flags, 1,
      svc::JobLineDefaults{env_threads(), 1, server_seed,
                           /*allow_repeat=*/false},
      &req);
  EXPECT_TRUE(parsed);
  Task t;
  t.id = req.id;
  t.job = std::move(req.job);
  t.job.index = static_cast<int>(id_hash(t.id) & 0x7FFFFFFFULL);
  if (!t.job.explicit_seed) {
    t.job.params_seed = derive_serve_seed(server_seed, t.id);
  }
  t.result_key = result_key(t.job);
  return t;
}

void expect_same_deterministic_result(const svc::JobResult& a,
                                      const svc::JobResult& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.num_colors, b.num_colors);
  EXPECT_EQ(a.h_rounds, b.h_rounds);
  EXPECT_EQ(a.g_rounds, b.g_rounds);
  EXPECT_EQ(a.fallback_count, b.fallback_count);
  EXPECT_EQ(a.num_cliques, b.num_cliques);
  EXPECT_EQ(a.attempts, b.attempts);
}

TEST(ServerScheduler, ShedsAtQueueDepthDeterministically) {
  ServeCache cache{CacheBudgets{}};
  SchedulerOptions opt;
  opt.workers = 2;
  opt.queue_depth = 4;
  opt.policy.manifest_seed = 404;
  Scheduler sched(opt, cache);
  // Submit before start(): occupancy is exact, so the shed boundary is
  // deterministic — the first queue_depth submissions are accepted, the
  // rest shed.
  std::vector<Task> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(make_task("t" + std::to_string(i),
                              "--gen gnm --n 120 --m 400 --algo fast"));
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(sched.submit(&tasks[static_cast<std::size_t>(i)]), i < 4)
        << "submission " << i;
  }
  EXPECT_EQ(sched.counters().shed, 2u);
  sched.start();
  sched.drain();
  EXPECT_EQ(sched.counters().completed, 4u);
  // The queue drained: a shed task resubmits cleanly.
  EXPECT_TRUE(sched.submit(&tasks[4]));
  sched.drain();
  EXPECT_EQ(sched.counters().completed, 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(tasks[static_cast<std::size_t>(i)].result.ok) << i;
  }
  sched.stop();
}

TEST(ServerScheduler, ResultCacheReplaysIdenticalRequests) {
  ServeCache cache{CacheBudgets{}};
  SchedulerOptions opt;
  opt.workers = 1;
  opt.policy.manifest_seed = 404;
  Scheduler sched(opt, cache);
  sched.start();
  // Same (recipe, seed, algo) under two ids: the second is answered from
  // the result cache, bit-identical except for the submission identity.
  auto t1 = make_task("first", "--gen gnm --n 200 --m 800 --algo fast --seed 7");
  auto t2 = make_task("second", "--gen gnm --n 200 --m 800 --algo fast --seed 7");
  ASSERT_TRUE(sched.submit(&t1));
  sched.drain();
  ASSERT_TRUE(sched.submit(&t2));
  sched.drain();
  sched.stop();
  EXPECT_EQ(sched.counters().result_hits, 1u);
  ASSERT_TRUE(t1.result.ok);
  ASSERT_TRUE(t2.result.ok);
  expect_same_deterministic_result(t1.result, t2.result);
  EXPECT_EQ(t2.result.wall_ns, 0.0);  // replay, nothing ran
}

TEST(ServerScheduler, ZeroResultBudgetSolvesEveryJob) {
  const char* flags =
      "--gen planted --delta 110 --cliques 3 --ext 8 --anti 2 --oracle "
      "--eps 0.2 --algo high --seed 7";
  // Same (recipe, seed, algo) under two ids, with the result cache off:
  // both jobs run the dense pipeline.
  CacheBudgets budgets;
  budgets.result_bytes = 0;
  ServeCache cache{budgets};
  SchedulerOptions opt;
  opt.workers = 1;
  opt.policy.manifest_seed = 404;
  Scheduler sched(opt, cache);
  sched.start();
  auto t1 = make_task("first", flags);
  auto t2 = make_task("second", flags);
  ASSERT_TRUE(sched.submit(&t1));
  sched.drain();
  ASSERT_TRUE(sched.submit(&t2));
  sched.drain();
  sched.stop();
  EXPECT_EQ(sched.counters().result_hits, 0u);

  // Reference: a direct solve of the same instance with the Options the
  // job slot builds.
  const auto inst = svc::build_instance(t1.job);
  ASSERT_TRUE(inst.error.empty()) << inst.error;
  Options o;
  o.algo = Algo::kHighDegree;
  o.threads = env_threads();
  o.seed = 7;
  o.eps = 0.2;
  o.oracle = true;
  Solver solver;
  Outcome ref;
  solver.solve(Problem::cluster(inst.cg), o, &ref);
  ASSERT_TRUE(ref.ok()) << ref.error.message;
  EXPECT_GT(ref.result.num_cliques, 0);
  for (const Task* t : {&t1, &t2}) {
    const auto& r = t->result;
    ASSERT_TRUE(r.ok) << t->id << ": " << r.error;
    EXPECT_GT(r.wall_ns, 0.0) << t->id;
    EXPECT_EQ(r.num_colors, ref.result.num_colors) << t->id;
    EXPECT_EQ(r.h_rounds, ref.result.h_rounds) << t->id;
    EXPECT_EQ(r.g_rounds, ref.result.g_rounds) << t->id;
    EXPECT_EQ(r.num_cliques, ref.result.num_cliques) << t->id;
    EXPECT_EQ(r.fallback_count, ref.result.fallback_count) << t->id;
  }
}

// ---------------------------------------------------------------------
// Server: the end-to-end determinism contract
// ---------------------------------------------------------------------

// The job mix of the determinism tests: both serving algorithms, an
// explicit-seed job, and a deterministically failing build (missing
// DIMACS file) — failures are part of the report contract too.
const std::vector<std::pair<std::string, std::string>>& test_jobs() {
  static const std::vector<std::pair<std::string, std::string>> jobs = {
      {"a1", "--gen gnm --n 300 --m 2400 --algo fast"},
      {"a2", "--gen gnm --n 300 --m 2400 --algo fast"},
      {"b1",
       "--gen planted --delta 100 --cliques 3 --ext 8 --anti 2 --oracle "
       "--eps 0.2 --algo high"},
      {"c1", "--gen gnm --n 250 --m 700 --algo low"},
      {"d1", "--gen caveman --cliques 5 --size 18 --bridges 2 --algo fast"},
      {"e1", "--gen grid --w 10 --h 8 --algo fast"},
      {"f1", "--dimacs no_such_file_for_test.col"},
      {"g1", "--gen gnm --n 300 --m 2400 --algo fast --seed 42"},
  };
  return jobs;
}

std::string run_server_report(int workers, const std::vector<int>& order,
                              int max_retries = 0, bool degrade = false) {
  ServerOptions so;
  so.seed = 404;
  so.workers = workers;
  so.default_threads = env_threads();
  so.max_retries = max_retries;
  so.degrade = degrade;
  Server srv(so);
  int lineno = 0;
  std::string resp;
  for (const int i : order) {
    const auto& [id, flags] = test_jobs()[static_cast<std::size_t>(i)];
    resp.clear();
    srv.handle_line("job " + id + " " + flags, ++lineno, &resp);
    EXPECT_EQ(resp, "accepted " + id + "\n");
  }
  return srv.report_json(/*include_timing=*/false);
}

std::vector<std::vector<int>> submission_orders() {
  const int n = static_cast<int>(test_jobs().size());
  std::vector<int> fwd, rev, interleaved;
  for (int i = 0; i < n; ++i) fwd.push_back(i);
  for (int i = n - 1; i >= 0; --i) rev.push_back(i);
  for (int i = 0; i < n; i += 2) interleaved.push_back(i);
  for (int i = 1; i < n; i += 2) interleaved.push_back(i);
  return {fwd, rev, interleaved};
}

TEST(ServerDeterminism, ReportByteIdenticalAcrossWorkersAndOrders) {
  const std::string reference = run_server_report(1, submission_orders()[0]);
  EXPECT_NE(reference.find("\"num_jobs\": 8"), std::string::npos);
  EXPECT_NE(reference.find("\"jobs_failed\": 1"), std::string::npos);
  for (const int workers : {1, 2, 8}) {
    for (const auto& order : submission_orders()) {
      EXPECT_EQ(run_server_report(workers, order), reference)
          << "workers=" << workers;
    }
  }
}

TEST(ServerDeterminism, ConcurrentClientsMatchSequentialReport) {
  const std::string reference = run_server_report(1, submission_orders()[0]);
  ServerOptions so;
  so.seed = 404;
  so.workers = 4;
  so.default_threads = env_threads();
  Server srv(so);
  // Two clients race their submissions (even ids vs odd ids); the
  // drained report must not care.
  const auto client = [&](int parity) {
    std::string resp;
    for (std::size_t i = static_cast<std::size_t>(parity);
         i < test_jobs().size(); i += 2) {
      const auto& [id, flags] = test_jobs()[i];
      resp.clear();
      srv.handle_line("job " + id + " " + flags,
                      static_cast<int>(i) + 1, &resp);
    }
  };
  std::thread even(client, 0), odd(client, 1);
  even.join();
  odd.join();
  EXPECT_EQ(srv.report_json(false), reference);
}

TEST(ServerDeterminism, DuplicateIdRejected) {
  ServerOptions so;
  so.seed = 1;
  Server srv(so);
  std::string resp;
  srv.handle_line("job x --gen gnm --n 100 --m 300 --algo fast", 1, &resp);
  EXPECT_EQ(resp, "accepted x\n");
  resp.clear();
  EXPECT_THROW(
      srv.handle_line("job x --gen gnm --n 100 --m 300 --algo fast", 2,
                      &resp),
      svc::ManifestError);
}

// ---------------------------------------------------------------------
// Faults, retries, degradation, steal perturbation
// ---------------------------------------------------------------------

class ServerFailpoints : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fail::kCompiledIn) {
      GTEST_SKIP() << "built with CCG_FAILPOINTS=0";
    }
    fail::disarm_all();
  }
  void TearDown() override { fail::disarm_all(); }
};

TEST_F(ServerFailpoints, RetriedFaultKeepsReportByteIdentical) {
  // Fail job b1's first attempt on every server (the match_arg selector
  // pins the injection to that attempt's seed, worker-count independent);
  // one retry recovers it.
  fail::ArmSpec spec;
  spec.action = fail::Action::kThrow;
  spec.match_arg = derive_serve_seed(404, "b1");
  fail::arm("svc.job.run", spec);
  const std::string reference =
      run_server_report(1, submission_orders()[0], /*max_retries=*/1);
  EXPECT_NE(reference.find("\"attempts\": 2"), std::string::npos);
  EXPECT_NE(reference.find("\"jobs_retried\": 1"), std::string::npos);
  for (const int workers : {2, 8}) {
    for (const auto& order : submission_orders()) {
      EXPECT_EQ(run_server_report(workers, order, 1), reference)
          << "workers=" << workers;
    }
  }
  EXPECT_GE(fail::fire_count("svc.job.run"), 7);  // once per server run
}

TEST_F(ServerFailpoints, DegradedServingKeepsReportByteIdentical) {
  // No retries, every attempt of b1 dies: the degradation fallback
  // serves the job (greedy (Delta+1)-coloring), flagged in the report —
  // still byte-identical across the sweep.
  fail::ArmSpec spec;
  spec.action = fail::Action::kThrow;
  spec.match_arg = derive_serve_seed(404, "b1");
  fail::arm("svc.job.run", spec);
  const std::string reference = run_server_report(
      1, submission_orders()[0], /*max_retries=*/0, /*degrade=*/true);
  EXPECT_NE(reference.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(reference.find("\"jobs_degraded\": 1"), std::string::npos);
  for (const int workers : {2, 8}) {
    EXPECT_EQ(run_server_report(workers, submission_orders()[1], 0, true),
              reference)
        << "workers=" << workers;
  }
}

TEST_F(ServerFailpoints, StealDelaysDoNotPerturbTheReport) {
  const std::string reference = run_server_report(1, submission_orders()[0]);
  // Injected delays at every steal decision reshuffle who steals what;
  // the drained report must not move.
  fail::ArmSpec spec;
  spec.action = fail::Action::kDelayMs;
  spec.delay_ms = 1;
  fail::arm("server.steal", spec);
  for (const int workers : {2, 8}) {
    EXPECT_EQ(run_server_report(workers, submission_orders()[2]), reference)
        << "workers=" << workers;
  }
  EXPECT_GT(fail::fire_count("server.steal"), 0);
}

TEST_F(ServerFailpoints, ShedRespondsExplicitlyAndExcludesFromReport) {
  // Delay execution so occupancy is controlled: with queue_depth=1 the
  // second submission meets a full queue and sheds.
  fail::ArmSpec spec;
  spec.action = fail::Action::kDelayMs;
  spec.delay_ms = 200;
  fail::arm("svc.job.run", spec);
  ServerOptions so;
  so.seed = 9;
  so.workers = 1;
  so.queue_depth = 1;
  Server srv(so);
  std::string resp;
  srv.handle_line("job a --gen gnm --n 100 --m 300 --algo fast", 1, &resp);
  EXPECT_EQ(resp, "accepted a\n");
  resp.clear();
  srv.handle_line("job b --gen gnm --n 100 --m 300 --algo fast", 2, &resp);
  EXPECT_EQ(resp, "shed b queue_full\n");
  fail::disarm_all();
  srv.drain();
  // Shed jobs are not part of the report; the id is free to resubmit.
  EXPECT_NE(srv.report_json(false).find("\"num_jobs\": 1"),
            std::string::npos);
  resp.clear();
  srv.handle_line("job b --gen gnm --n 100 --m 300 --algo fast", 3, &resp);
  EXPECT_EQ(resp, "accepted b\n");
  srv.drain();
  EXPECT_NE(srv.report_json(false).find("\"num_jobs\": 2"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Stream transport
// ---------------------------------------------------------------------

TEST(ServerStream, ServesScriptAndExitsZero) {
  ServerOptions so;
  so.seed = 11;
  Server srv(so);
  std::istringstream in(
      "# smoke script\n"
      "job a --gen gnm --n 100 --m 300 --algo fast\n"
      "drain\n"
      "stats\n"
      "report notiming\n"
      "quit\n");
  std::ostringstream out;
  EXPECT_EQ(serve_stream(srv, in, out, /*strict=*/true), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("accepted a\n"), std::string::npos);
  EXPECT_NE(text.find("ok drain\n"), std::string::npos);
  EXPECT_NE(text.find("stats-begin\n"), std::string::npos);
  EXPECT_NE(text.find("report-begin\n"), std::string::npos);
  EXPECT_NE(text.find("report-end\n"), std::string::npos);
  EXPECT_NE(text.find("bye\n"), std::string::npos);
}

TEST(ServerStream, StrictModeExitsTwoOnBadRequest) {
  ServerOptions so;
  Server srv(so);
  std::istringstream in("job a --gen gnm --n 100\nflush\n");
  std::ostringstream out;
  EXPECT_EQ(serve_stream(srv, in, out, /*strict=*/true), 2);
}

TEST(ServerStream, LenientModeReportsErrorAndKeepsServing) {
  ServerOptions so;
  Server srv(so);
  std::istringstream in("flush\njob a --gen gnm --n 100 --m 300 --algo fast\nquit\n");
  std::ostringstream out;
  EXPECT_EQ(serve_stream(srv, in, out, /*strict=*/false), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("error line 1:"), std::string::npos);
  EXPECT_NE(text.find("accepted a\n"), std::string::npos);
}

// ---------------------------------------------------------------------
// Socket transport
// ---------------------------------------------------------------------

// Connects to the Unix listener at `path`, retrying while serve_unix is
// still binding it; -1 if it never accepts.
int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int tries = 0; tries < 500; ++tries) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

void send_bytes(int fd, const std::string& data) {
  for (std::size_t off = 0; off < data.size();) {
    const ssize_t w =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (w <= 0) return;  // the server may close before reading it all
    off += static_cast<std::size_t>(w);
  }
}

// Everything the server sends until it closes the connection.
std::string read_to_end(int fd) {
  std::string out;
  char buf[4096];
  for (ssize_t r; (r = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
    out.append(buf, static_cast<std::size_t>(r));
  }
  return out;
}

TEST(ServerSocket, OverlongLineClosesOnlyThatConnection) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ccg_test_server_" + std::to_string(::getpid()) + ".sock"))
          .string();
  ServerOptions so;
  so.seed = 3;
  Server srv(so);
  int code = -1;
  std::thread listener([&] { code = serve_unix(srv, path); });

  // A peer that never sends a newline: the error, then end of stream.
  const int hostile = connect_unix(path);
  EXPECT_GE(hostile, 0);
  if (hostile >= 0) {
    send_bytes(hostile, std::string(2 * kMaxLineBytes, 'x'));
    EXPECT_EQ(read_to_end(hostile), "error line 1: line too long\n");
    ::close(hostile);
  }

  // The listener keeps serving: another client's quit stops it cleanly.
  const int client = connect_unix(path);
  EXPECT_GE(client, 0);
  if (client >= 0) {
    send_bytes(client, "quit\n");
    EXPECT_EQ(read_to_end(client), "bye\n");
    ::close(client);
  }
  listener.join();
  EXPECT_EQ(code, 0);
  ::unlink(path.c_str());
}

TEST(ServerSocket, QuitReturnsWhileAnotherPeerIsIdle) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ccg_test_server_idle_" + std::to_string(::getpid()) + ".sock"))
          .string();
  ServerOptions so;
  so.seed = 3;
  Server srv(so);
  std::atomic<int> code{-1};
  std::thread listener([&] { code = serve_unix(srv, path); });

  // A connects first, so the listener accepts it before B, and then stays
  // idle: its handler sits in recv().
  const int idle = connect_unix(path);
  EXPECT_GE(idle, 0);
  const int client = connect_unix(path);
  EXPECT_GE(client, 0);
  if (client >= 0) {
    send_bytes(client, "quit\n");
    EXPECT_EQ(read_to_end(client), "bye\n");
    ::close(client);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (code.load() < 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(code.load(), 0) << "serve_unix still running 10 s after quit";
  if (idle >= 0) {
    if (code.load() == 0) {
      char byte;
      EXPECT_EQ(::recv(idle, &byte, 1, 0), 0) << "idle peer got no EOF";
    }
    ::close(idle);  // lets a listener that missed the quit return
  }
  listener.join();
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace ccg::server
