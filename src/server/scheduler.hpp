// The job scheduler: admission control + per-worker run queues with
// work stealing + per-worker Solver arenas and SLO metrics. It is the
// only one in the repo: ccg_serve feeds it streamed requests, and
// ccg_batch feeds it a manifest through an in-process Server.
//
// Jobs arrive while workers run, so work sits in per-worker deques
// (exec/steal.hpp). submit() places a job on the shard its instance key
// hashes to — jobs sharing a prepared instance gravitate to the same
// worker, whose JobSlot arena is already warm for them — and an idle
// worker steals from the back of a victim's shard. Placement and
// stealing only move *where and when* a job runs; every job's seeds are
// fixed before admission (Task::job), so results are bit-identical for
// any worker count and steal schedule.
//
// Admission is a hard bound on in-flight jobs (queued + running):
// submit() returns false ("shed") once `queue_depth` jobs are in flight,
// and the protocol layer reports that to the client explicitly instead
// of queueing unboundedly. Shed jobs never enter the deterministic
// report — whether a job sheds depends on timing, so it is timing-class
// data (counted in `stats`).
//
// Each worker owns a JobSlot (reused ccg::Solver arena — the warm
// Algo::kFast path stays 0 allocs/job: ring-buffer deques, a precomputed
// result-cache key, relaxed-atomic histograms; nothing on the execute
// path allocates) plus one latency histogram per job class (the four Algo
// values), merged lock-free at report time into p50/p95/p99 per class.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/latency.hpp"
#include "common/thread_safety.hpp"
#include "exec/steal.hpp"
#include "server/cache.hpp"
#include "svc/service.hpp"

namespace ccg::server {

// One queued job. The submitter owns the Task (and keeps it alive until
// drained); the scheduler only passes the pointer around. The result-cache
// key is precomputed at admission so the execute path never builds a
// string.
struct Task {
  std::string id;
  svc::JobSpec job;       // index + params_seed already derived
  std::string result_key;
  svc::JobResult result;  // filled by the worker that runs the task
};

struct SchedulerOptions {
  int workers = 1;        // <= 0 selects the hardware concurrency
  int queue_depth = 256;  // admission bound on in-flight jobs
  // Failure policy per job (retries seeded from policy.manifest_seed =
  // the server seed; see svc::derive_retry_seed).
  svc::RunPolicy policy;
};

class Scheduler {
 public:
  // Latency classes = the four Algo values.
  static constexpr int kNumClasses = 4;

  // `cache` is shared by every worker and must outlive the scheduler. A
  // cache whose CacheBudgets entry is 0 always misses (LruCache::enabled).
  Scheduler(const SchedulerOptions& opt, ServeCache& cache);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  int workers() const { return deques_.workers(); }

  void start();
  // Stop workers after their current job; queued tasks stay queued (a
  // later start() resumes them). Idempotent.
  void stop();

  // Admission-controlled enqueue. False = shed: the queue_depth bound is
  // reached, the task was NOT queued, and the caller owns telling the
  // client. Safe from any thread, including before start() (tasks queue
  // up and run once workers exist).
  bool submit(Task* t);

  // Block until no job is queued or running.
  void drain();

  struct Counters {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t steals = 0;
    std::uint64_t result_hits = 0;
  };
  Counters counters() const;

  // Fold every worker's per-class histogram into per_class[0..3]
  // (indexed by static_cast<int>(Algo)). Call on drained state for exact
  // counts.
  void merge_latency(LatencyHistogram* per_class) const;

 private:
  struct WorkerMetrics {
    LatencyHistogram by_class[kNumClasses];
  };

  void worker_loop(int w);
  void execute(int w, Task* t);

  const SchedulerOptions opt_;
  ServeCache& cache_;
  exec::StealDeques<Task*> deques_;
  // Single-owner arenas: slots_[w] and metrics_[w] are touched only by
  // worker w's thread between start() and stop() (merge_latency reads the
  // lock-free histograms concurrently — relaxed-atomic counters only).
  std::vector<svc::JobSlot> slots_;                    // one per worker
  std::vector<std::unique_ptr<WorkerMetrics>> metrics_;  // one per worker
  // Controlling thread only: mutated by start()/stop(), whose serial use
  // is the Server's contract (construction starts, destruction stops).
  std::vector<std::thread> threads_;

  Mutex mu_;
  CondVar work_cv_;   // submit -> idle workers
  CondVar idle_cv_;   // last completion -> drain()
  std::uint64_t epoch_ CCG_GUARDED_BY(mu_) = 0;  // bumped per submit
  bool running_ CCG_GUARDED_BY(mu_) = false;

  std::atomic<int> pending_{0};  // queued + running; lock-free admission
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> result_hits_{0};
};

}  // namespace ccg::server
