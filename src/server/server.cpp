#include "server/server.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ccg::server {

namespace {

SchedulerOptions scheduler_options(const ServerOptions& o) {
  SchedulerOptions s;
  s.workers = o.workers;
  s.queue_depth = o.queue_depth;
  s.policy.manifest_seed = o.seed;
  s.policy.max_retries = o.max_retries;
  s.policy.degrade = o.degrade;
  s.policy.deadline_ms = o.deadline_ms;
  return s;
}

void slo_class_json(JsonWriter& j, const char* name,
                    const LatencyHistogram& h) {
  j.begin_object();
  j.key("algo").value(name);
  j.key("count").value(h.count());
  j.key("p50_ns").value(h.quantile_ns(0.50));
  j.key("p95_ns").value(h.quantile_ns(0.95));
  j.key("p99_ns").value(h.quantile_ns(0.99));
  j.key("mean_ns").value(h.mean_ns());
  j.key("max_ns").value(h.max_observed_ns());
  j.end_object();
}

template <class V>
void cache_stats_json(JsonWriter& j, const char* name,
                      const LruCache<V>& cache) {
  const auto s = cache.stats();
  j.key(name).begin_object();
  j.key("hits").value(s.hits);
  j.key("misses").value(s.misses);
  j.key("evictions").value(s.evictions);
  j.key("entries").value(s.entries);
  j.key("bytes").value(s.bytes);
  j.end_object();
}

}  // namespace

Server::Server(const ServerOptions& opt)
    : opt_(opt), cache_(opt.cache), sched_(scheduler_options(opt), &cache_) {
  sched_.start();
}

Server::~Server() { sched_.stop(); }

bool Server::handle_line(const std::string& line, int lineno,
                         std::string* out) {
  Request req;
  if (!parse_request(line, lineno, svc::JobLineDefaults{opt_.default_threads,
                                                        /*repeat=*/1,
                                                        /*graph_seed=*/
                                                        opt_.seed,
                                                        /*allow_repeat=*/
                                                        false},
                     &req)) {
    return true;  // blank / comment line
  }
  switch (req.kind) {
    case RequestKind::kJob: {
      // The id takes over both roles the manifest index plays: the seed
      // stream entity (derive_serve_seed) and the retry-stream index
      // (low 31 bits of the hash — retries stay deterministic per id).
      req.job.index = static_cast<int>(id_hash(req.id) & 0x7FFFFFFFULL);
      if (!req.job.explicit_seed) {
        req.job.params_seed = derive_serve_seed(opt_.seed, req.id);
      }
      switch (submit(req.id, std::move(req.job))) {
        case Admission::kAccepted:
          *out += "accepted " + req.id + "\n";
          return true;
        case Admission::kShed:
          // Explicit backpressure instead of unbounded queueing; the
          // client may resubmit the same id once the queue drains.
          *out += "shed " + req.id + " queue_full\n";
          return true;
        case Admission::kDuplicateId:
          svc::parse_fail(lineno, "duplicate job id '" + req.id + "'");
      }
      return true;
    }
    case RequestKind::kDrain:
      drain();
      *out += "ok drain\n";
      return true;
    case RequestKind::kReport:
      append_report(req.timing, out);
      return true;
    case RequestKind::kStats:
      *out += "stats-begin\n";
      *out += stats_json();
      *out += "stats-end\n";
      return true;
    case RequestKind::kQuit:
      *out += "bye\n";
      return false;
  }
  return true;
}

Server::Admission Server::submit(std::string id, svc::JobSpec job) {
  MutexLock lock(mu_);
  if (tasks_.count(id) != 0) return Admission::kDuplicateId;
  auto task = std::make_unique<Task>();
  task->id = id;
  task->job = std::move(job);
  task->dense_key = dense_key(task->job);
  task->result_key = result_key(task->job);
  // A shed task is dropped entirely, so its id stays free.
  if (!sched_.submit(task.get())) return Admission::kShed;
  tasks_.emplace(std::move(id), std::move(task));
  return Admission::kAccepted;
}

void Server::drain() {
  // Block new submissions while draining so "ok drain" means what it
  // says at the moment it is written. Workers never take mu_, so queued
  // jobs keep completing.
  MutexLock lock(mu_);
  sched_.drain();
}

void Server::append_report(bool include_timing, std::string* out) {
  *out += "report-begin\n";
  *out += report_json(include_timing);
  *out += "report-end\n";
}

Server::Aggregate Server::tally() {
  Aggregate a;
  a.num_jobs = static_cast<int>(tasks_.size());
  for (const auto& [id, task] : tasks_) {
    const svc::JobResult& r = task->result;
    a.ok_jobs += r.ok ? 1 : 0;
    a.jobs_failed += r.ok ? 0 : 1;
    a.jobs_retried += r.attempts > 1 ? 1 : 0;
    a.jobs_degraded += r.degraded ? 1 : 0;
    a.total_h_rounds += r.h_rounds;
    a.total_g_rounds += r.g_rounds;
    a.total_fallbacks += r.fallback_count;
  }
  return a;
}

Server::Aggregate Server::aggregate() {
  MutexLock lock(mu_);
  sched_.drain();
  return tally();
}

std::string Server::report_json(bool include_timing) {
  MutexLock lock(mu_);
  sched_.drain();  // a report is always a drained report
  const Aggregate agg = tally();
  JsonWriter j;
  j.begin_object();
  j.key("report").value("ccg_serve");
  j.key("schema_version").value(1);
  j.key("server_seed").value(opt_.seed);
  j.key("num_jobs").value(agg.num_jobs);
  if (include_timing) j.key("workers").value(sched_.workers());

  j.key("jobs").begin_array();
  for (const auto& [id, task] : tasks_) {
    j.begin_object();
    j.key("id").value(id);
    svc::job_result_json(j, task->job, task->result, include_timing);
    j.end_object();
  }
  j.end_array();

  j.key("aggregate").begin_object();
  j.key("ok_jobs").value(agg.ok_jobs);
  j.key("jobs_failed").value(agg.jobs_failed);
  j.key("jobs_retried").value(agg.jobs_retried);
  j.key("jobs_degraded").value(agg.jobs_degraded);
  j.key("total_h_rounds").value(agg.total_h_rounds);
  j.key("total_g_rounds").value(agg.total_g_rounds);
  j.key("total_fallbacks").value(agg.total_fallbacks);
  j.end_object();

  if (include_timing) {
    // SLO section: per-class latency over everything served since
    // startup, plus the scheduler/cache counters. All timing-class.
    LatencyHistogram by_class[Scheduler::kNumClasses];
    sched_.merge_latency(by_class);
    j.key("slo").begin_object();
    j.key("classes").begin_array();
    for (int c = 0; c < Scheduler::kNumClasses; ++c) {
      slo_class_json(j, ccg::algo_name(static_cast<Algo>(c)), by_class[c]);
    }
    j.end_array();
    const auto ctr = sched_.counters();
    j.key("submitted").value(ctr.submitted);
    j.key("completed").value(ctr.completed);
    j.key("shed").value(ctr.shed);
    j.key("steals").value(ctr.steals);
    j.key("result_hits").value(ctr.result_hits);
    j.key("dense_hits").value(ctr.dense_hits);
    j.key("dense_captures").value(ctr.dense_captures);
    j.end_object();
  }
  j.end_object();
  return j.str();
}

std::string Server::stats_json() {
  JsonWriter j;
  j.begin_object();
  j.key("workers").value(sched_.workers());
  j.key("queue_depth").value(opt_.queue_depth);
  const auto ctr = sched_.counters();
  j.key("submitted").value(ctr.submitted);
  j.key("completed").value(ctr.completed);
  j.key("shed").value(ctr.shed);
  j.key("steals").value(ctr.steals);
  j.key("result_hits").value(ctr.result_hits);
  j.key("dense_hits").value(ctr.dense_hits);
  j.key("dense_captures").value(ctr.dense_captures);
  cache_stats_json(j, "instance_cache", cache_.instances);
  cache_stats_json(j, "dense_cache", cache_.dense);
  cache_stats_json(j, "result_cache", cache_.results);
  LatencyHistogram by_class[Scheduler::kNumClasses];
  sched_.merge_latency(by_class);
  j.key("classes").begin_array();
  for (int c = 0; c < Scheduler::kNumClasses; ++c) {
    slo_class_json(j, ccg::algo_name(static_cast<Algo>(c)), by_class[c]);
  }
  j.end_array();
  j.end_object();
  return j.str();
}

ServerOptions manifest_server_options(const svc::Manifest& m,
                                      ServerOptions base) {
  base.seed = m.seed;
  base.queue_depth = std::max(1, static_cast<int>(m.jobs.size()));
  return base;
}

Server::Admission submit_manifest_job(Server& srv, const svc::Manifest& m,
                                      std::size_t i) {
  CCG_CHECK_MSG(srv.options().seed == m.seed,
                "a manifest runs on a server seeded with the manifest seed");
  CCG_CHECK(i < m.jobs.size());
  const std::size_t width = std::to_string(m.jobs.size() - 1).size();
  std::string id = std::to_string(i);
  id.insert(0, width - id.size(), '0');
  return srv.submit(std::move(id), m.jobs[i]);
}

}  // namespace ccg::server
