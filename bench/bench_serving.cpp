// Serving benchmark: jobs/sec of the one job scheduler (server::Server,
// behind both ccg_serve and ccg_batch). Drives ccg::server end to end —
// requests through Server::handle_line, execution on the work-stealing
// scheduler — at worker counts {1,2,8}, verifies the drained no-timing
// report is byte-identical across the sweep, measures steady-state
// allocations per job on a warm scheduler worker for the fast, auto and
// low algorithms (fast must be exactly 0 — the reset-and-reuse contract
// of svc::JobSlot, under the scheduler; auto and low stay within a small
// budget), quantifies the cross-job caches (result replay, dense-context
// preload), and emits per-job-class latency quantiles (p50/p95/p99) plus
// jobs/sec into BENCH_serving.json.
//
// bench/check_regression.py gates this file: fast_steady_allocs_per_job
// must be 0, auto/low at most --max-steady-allocs, per-class p95 latency
// and jobs/sec must stay within the reference band.
//
// Usage: bench_serving [out.json]
//   out.json  default BENCH_serving.json (cwd; run from the repo root)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_count.hpp"  // instruments the whole bench binary
#include "server/server.hpp"
#include "util.hpp"

using namespace ccg;

namespace {

const std::vector<int> kWorkerCounts = {1, 2, 8};

// The request stream of one pass: the serving shape — recurring
// small/medium jobs over four shared instance recipes (fast
// list-coloring plus full-pipeline auto jobs). Ids are assigned per
// (pass, index); seeds derive from (server seed, id), so every pass
// colors fresh instances while the instance cache stays warm.
const char* kJobFlags[] = {
    "--gen gnm --n 2000 --m 16000 --algo fast",
    "--gen gnm --n 2000 --m 16000 --algo fast",
    "--gen gnm --n 2000 --m 16000 --algo fast",
    "--gen gnm --n 2000 --m 16000 --algo fast",
    "--gen gnm --n 2000 --m 16000 --algo fast",
    "--gen gnm --n 2000 --m 16000 --algo fast",
    "--gen caveman --cliques 12 --size 28 --bridges 3 --algo fast",
    "--gen caveman --cliques 12 --size 28 --bridges 3 --algo fast",
    "--gen caveman --cliques 12 --size 28 --bridges 3 --algo fast",
    "--gen planted --delta 200 --cliques 4 --ext 16 --anti 2 --sparse 400 "
    "--oracle --eps 0.2",
    "--gen planted --delta 200 --cliques 4 --ext 16 --anti 2 --sparse 400 "
    "--oracle --eps 0.2",
    "--gen planted --delta 150 --cliques 4 --ext 4 --anti 2 --oracle "
    "--eps 0.2",
};
constexpr int kJobsPerPass =
    static_cast<int>(sizeof(kJobFlags) / sizeof(kJobFlags[0]));

constexpr std::uint64_t kServerSeed = 2026;

// Submit one pass of the stream (unique ids per pass) and drain. Every
// submission must come back `accepted` — the default queue depth far
// exceeds a pass.
void submit_pass(server::Server& srv, int pass, int* lineno) {
  std::string line, resp;
  for (int i = 0; i < kJobsPerPass; ++i) {
    line = "job p" + std::to_string(pass) + ".j" + std::to_string(i) + " " +
           kJobFlags[i];
    resp.clear();
    srv.handle_line(line, ++*lineno, &resp);
    if (resp.rfind("accepted ", 0) != 0) {
      std::fprintf(stderr, "FATAL: submission not accepted: %s",
                   resp.c_str());
      std::exit(1);
    }
  }
  srv.drain();
}

struct WorkerRow {
  int workers = 0;
  ccg::TimedStats stats;
  double jobs_per_sec = 0;
  std::uint64_t steals = 0;
  std::uint64_t dense_captures = 0;
};

// Build one task from a request line the way the server does, with an
// explicit --seed so cache keys repeat across tasks.
server::Task make_task(const std::string& id, const std::string& flags) {
  server::Request req;
  const std::string line = "job " + id + " " + flags;
  const bool ok = server::parse_request(
      line, 1,
      svc::JobLineDefaults{1, 1, kServerSeed, /*allow_repeat=*/false}, &req);
  if (!ok) {
    std::fprintf(stderr, "FATAL: bad bench task line: %s\n", line.c_str());
    std::exit(1);
  }
  server::Task t;
  t.id = req.id;
  t.job = std::move(req.job);
  t.job.index = static_cast<int>(server::id_hash(t.id) & 0x7FFFFFFFULL);
  if (!t.job.explicit_seed) {
    t.job.params_seed = server::derive_serve_seed(kServerSeed, t.id);
  }
  t.dense_key = server::dense_key(t.job);
  t.result_key = server::result_key(t.job);
  return t;
}

// Steady-state allocations per job on one warm scheduler worker: `count`
// jobs of one recipe over a cached instance, result/dense caches off so
// every job takes the real solve path. Two warmup passes (high-water
// marks; see tests/test_svc_reuse.cpp for why two), then allocation and
// time deltas over `passes` measured passes — submit, ring hop, steal
// check, cache-hit instance lookup, solve, histogram record all
// included.
struct SteadyState {
  double allocs_per_job = 0;
  double ns_per_job = 0;
};

SteadyState measure_scheduler_steady(const char* flags, int count,
                                     int passes) {
  server::ServeCache cache{server::CacheBudgets{}};
  server::SchedulerOptions sopt;
  sopt.workers = 1;
  sopt.queue_depth = 256;
  sopt.policy.manifest_seed = kServerSeed;
  sopt.use_result_cache = false;
  sopt.use_dense_cache = false;
  server::Scheduler sched(sopt, &cache);
  sched.start();

  std::vector<server::Task> tasks;
  for (int i = 0; i < count; ++i) {
    tasks.push_back(make_task("s" + std::to_string(i), flags));
  }
  const auto run_pass = [&] {
    for (auto& t : tasks) {
      if (!sched.submit(&t)) {
        std::fprintf(stderr, "FATAL: steady-state submission shed\n");
        std::exit(1);
      }
    }
    sched.drain();
  };
  run_pass();
  run_pass();
  const long long alloc0 = alloc_count();
  const auto t = ccg::timed(run_pass, 0, passes);
  const long long alloc1 = alloc_count();
  sched.stop();
  const double jobs =
      static_cast<double>(tasks.size()) * static_cast<double>(passes);
  SteadyState s;
  s.allocs_per_job = static_cast<double>(alloc1 - alloc0) / jobs;
  s.ns_per_job = t.mean_ns / static_cast<double>(tasks.size());
  for (const auto& task : tasks) {
    if (!task.result.ok) {
      std::fprintf(stderr, "FATAL: steady-state job failed: %s\n",
                   task.result.error.c_str());
      std::exit(1);
    }
  }
  return s;
}

// Result-cache replay throughput: identical (recipe, seed, algo)
// requests after the first are answered from the cache without running.
struct ReplayStats {
  double jobs_per_sec = 0;
  double hit_ratio = 0;
};

ReplayStats measure_result_replay() {
  server::ServeCache cache{server::CacheBudgets{}};
  server::SchedulerOptions sopt;
  sopt.workers = 2;
  sopt.queue_depth = 256;
  sopt.policy.manifest_seed = kServerSeed;
  server::Scheduler sched(sopt, &cache);
  sched.start();

  std::vector<server::Task> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back(make_task("r" + std::to_string(i),
                              "--gen gnm --n 2000 --m 16000 --algo fast "
                              "--seed 7"));
  }
  // Cold pass populates the cache; the timed pass replays.
  if (!sched.submit(&tasks[0])) std::exit(1);
  sched.drain();
  const auto before = sched.counters();
  const auto t = ccg::timed(
      [&] {
        for (auto& task : tasks) {
          if (!sched.submit(&task)) {
            std::fprintf(stderr, "FATAL: replay submission shed\n");
            std::exit(1);
          }
        }
        sched.drain();
      },
      1, 2);
  const auto after = sched.counters();
  sched.stop();
  ReplayStats r;
  r.jobs_per_sec = static_cast<double>(tasks.size()) * 1e9 / t.min_ns;
  const double served =
      static_cast<double>(after.completed - before.completed);
  r.hit_ratio =
      static_cast<double>(after.result_hits - before.result_hits) / served;
  return r;
}

// Dense-context preload speedup: the high-degree run with its ACD/dense
// prefix replayed from a snapshot vs. building it. Result cache off so
// hits still execute the (post-prefix) pipeline.
double measure_dense_speedup() {
  const char* flags =
      "--gen planted --delta 150 --cliques 4 --ext 4 --anti 2 --oracle "
      "--eps 0.2 --algo high --seed 7";
  const auto run_tasks = [&](bool use_dense, int count) {
    server::ServeCache cache{server::CacheBudgets{}};
    server::SchedulerOptions sopt;
    sopt.workers = 1;
    sopt.queue_depth = 256;
    sopt.policy.manifest_seed = kServerSeed;
    sopt.use_result_cache = false;
    sopt.use_dense_cache = use_dense;
    server::Scheduler sched(sopt, &cache);
    sched.start();
    std::vector<server::Task> tasks;
    for (int i = 0; i < count; ++i) {
      tasks.push_back(make_task("d" + std::to_string(i), flags));
    }
    // Prime: instance build (+ snapshot capture when enabled).
    if (!sched.submit(&tasks[0])) std::exit(1);
    sched.drain();
    const auto t = ccg::timed(
        [&] {
          for (auto& task : tasks) {
            if (!sched.submit(&task)) std::exit(1);
          }
          sched.drain();
        },
        1, 2);
    sched.stop();
    return t.min_ns / static_cast<double>(count);
  };
  const double miss_ns = run_tasks(false, 4);
  const double hit_ns = run_tasks(true, 4);
  return miss_ns / hit_ns;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serving.json";
  const int warmup = 1;
  const int reps = 2;
  const int hw_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  bench::header("BENCH / serving",
                "persistent-server jobs/sec at workers in {1,2,8}; "
                "byte-identical drained reports across the sweep; zero "
                "allocs/job on the warm fast path under the scheduler, "
                "auto/low within budget; per-class latency quantiles");
  std::printf("hardware threads: %d\n", hw_threads);

  // ---- worker sweep + report determinism + per-class latency ----
  bench::row({"workers", "wall ms", "mean ms", "jobs/sec", "speedup",
              "steals"});
  std::vector<WorkerRow> rows;
  std::string reference_report;
  LatencyHistogram by_class[server::Scheduler::kNumClasses];
  for (const int workers : kWorkerCounts) {
    server::ServerOptions sopt;
    sopt.seed = kServerSeed;
    sopt.workers = workers;
    server::Server srv(sopt);
    int pass = 0, lineno = 0;
    WorkerRow row;
    row.workers = workers;
    row.stats = ccg::timed([&] { submit_pass(srv, pass++, &lineno); },
                           warmup, reps, kJobsPerPass);
    row.jobs_per_sec =
        static_cast<double>(kJobsPerPass) * 1e9 / row.stats.min_ns;
    const auto ctr = srv.scheduler().counters();
    row.steals = ctr.steals;
    row.dense_captures = ctr.dense_captures;
    const std::string report = srv.report_json(/*include_timing=*/false);
    if (reference_report.empty()) {
      reference_report = report;
    } else if (report != reference_report) {
      std::fprintf(stderr,
                   "FATAL: drained report not bit-identical at workers=%d\n",
                   workers);
      return 1;
    }
    if (workers == 1) srv.scheduler().merge_latency(by_class);
    rows.push_back(row);
    bench::row({bench::fmt(workers), bench::fmt(row.stats.min_ns / 1e6),
                bench::fmt(row.stats.mean_ns / 1e6),
                bench::fmt(row.jobs_per_sec),
                bench::fmt(rows.front().stats.min_ns / row.stats.min_ns),
                bench::fmt(static_cast<int>(row.steals))});
  }
  std::printf("drained no-timing report: byte-identical across the sweep\n");

  // ---- warm-path allocations under the scheduler ----
  const auto steady = measure_scheduler_steady(
      "--gen gnm --n 2000 --m 16000 --algo fast --seed 7", 8, 2);
  const auto auto_steady = measure_scheduler_steady(
      "--gen planted --delta 150 --cliques 4 --ext 4 --anti 2 --oracle "
      "--eps 0.2 --seed 7",
      4, 1);
  const auto low_steady = measure_scheduler_steady(
      "--gen gnm --n 1200 --m 4000 --algo low --seed 7", 4, 1);
  // The fast path must stay exactly allocation-free; the full auto and
  // low pipelines tolerate a small fixed number of grow-only stragglers.
  // check_regression.py --max-steady-allocs re-checks the JSON.
  constexpr double kPipelineAllocBudget = 64;
  std::printf("fast path:  %.2f allocs/job, %.2f ms/job (must be 0 allocs)\n",
              steady.allocs_per_job, steady.ns_per_job / 1e6);
  std::printf("auto path:  %.0f allocs/job, %.2f ms/job (budget %.0f)\n",
              auto_steady.allocs_per_job, auto_steady.ns_per_job / 1e6,
              kPipelineAllocBudget);
  std::printf("low path:   %.0f allocs/job, %.2f ms/job (budget %.0f)\n",
              low_steady.allocs_per_job, low_steady.ns_per_job / 1e6,
              kPipelineAllocBudget);
  if (steady.allocs_per_job != 0) {
    std::fprintf(stderr,
                 "FATAL: warm fast path allocated under the scheduler "
                 "(%.3f allocs/job)\n",
                 steady.allocs_per_job);
    return 1;
  }
  if (auto_steady.allocs_per_job > kPipelineAllocBudget ||
      low_steady.allocs_per_job > kPipelineAllocBudget) {
    std::fprintf(stderr,
                 "FATAL: warm pipeline path over budget (auto %.1f, low "
                 "%.1f > %.0f allocs/job)\n",
                 auto_steady.allocs_per_job, low_steady.allocs_per_job,
                 kPipelineAllocBudget);
    return 1;
  }

  // ---- cross-job caches ----
  const auto replay = measure_result_replay();
  const double dense_speedup = measure_dense_speedup();
  std::printf("result replay: %.0f jobs/sec (hit ratio %.2f)\n",
              replay.jobs_per_sec, replay.hit_ratio);
  std::printf("dense preload: %.2fx vs rebuilding the dense context\n",
              dense_speedup);

  // ---- JSON ----
  ccg::JsonWriter j;
  j.begin_object();
  j.key("bench").value("serving");
  j.key("schema_version").value(1);
  j.key("config")
      .begin_object()
      .key("warmup")
      .value(warmup)
      .key("reps")
      .value(reps)
      .key("estimator")
      .value("min")
      .key("hardware_threads")
      .value(hw_threads)
      .key("jobs_per_pass")
      .value(kJobsPerPass)
      .key("worker_counts")
      .begin_array();
  for (const int w : kWorkerCounts) j.value(w);
  j.end_array().end_object();
  j.key("by_workers").begin_array();
  for (const auto& row : rows) {
    j.begin_object();
    j.key("workers").value(row.workers);
    j.key("wall_ns").value(row.stats.min_ns);
    j.key("mean_ns").value(row.stats.mean_ns);
    j.key("jobs_per_sec").value(row.jobs_per_sec);
    j.key("speedup_vs_w1")
        .value(rows.front().stats.min_ns / row.stats.min_ns);
    j.key("steals").value(row.steals);
    j.key("dense_captures").value(row.dense_captures);
    j.end_object();
  }
  j.end_array();
  j.key("deterministic_across_workers").value(true);
  j.key("slo_classes").begin_array();
  for (int c = 0; c < server::Scheduler::kNumClasses; ++c) {
    const auto& h = by_class[c];
    j.begin_object();
    j.key("algo").value(algo_name(static_cast<Algo>(c)));
    j.key("count").value(h.count());
    j.key("p50_ns").value(h.quantile_ns(0.50));
    j.key("p95_ns").value(h.quantile_ns(0.95));
    j.key("p99_ns").value(h.quantile_ns(0.99));
    j.key("mean_ns").value(h.mean_ns());
    j.key("max_ns").value(h.max_observed_ns());
    j.end_object();
  }
  j.end_array();
  j.key("fast_steady_allocs_per_job").value(steady.allocs_per_job);
  j.key("fast_steady_ns_per_job").value(steady.ns_per_job);
  j.key("auto_steady_allocs_per_job").value(auto_steady.allocs_per_job);
  j.key("auto_steady_ns_per_job").value(auto_steady.ns_per_job);
  j.key("low_steady_allocs_per_job").value(low_steady.allocs_per_job);
  j.key("low_steady_ns_per_job").value(low_steady.ns_per_job);
  j.key("result_replay_jobs_per_sec").value(replay.jobs_per_sec);
  j.key("result_replay_hit_ratio").value(replay.hit_ratio);
  j.key("dense_preload_speedup").value(dense_speedup);
  j.key("total_wall_ns").value(rows.front().stats.min_ns);
  j.end_object();

  if (!j.write_file(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nBENCH JSON -> %s (w=1 %.1f ms, %.1f jobs/sec",
              out_path.c_str(), rows.front().stats.min_ns / 1e6,
              rows.front().jobs_per_sec);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    std::printf(", w=%d %.2fx", rows[i].workers,
                rows.front().stats.min_ns / rows[i].stats.min_ns);
  }
  std::printf(")\n");
  return 0;
}
