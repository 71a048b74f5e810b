#include "server/scheduler.hpp"

#include <chrono>
#include <functional>

#include "common/failpoint.hpp"
#include "exec/pool.hpp"

namespace ccg::server {

namespace {

using clock_type = std::chrono::steady_clock;

int resolve_workers(int requested) {
  return exec::ThreadPool::resolve(requested);
}

}  // namespace

Scheduler::Scheduler(const SchedulerOptions& opt, ServeCache* cache)
    : opt_(opt),
      cache_(cache),
      deques_(resolve_workers(opt.workers),
              opt.queue_depth > 0 ? opt.queue_depth : 1) {
  const int w = deques_.workers();
  slots_.resize(static_cast<std::size_t>(w));
  metrics_.reserve(static_cast<std::size_t>(w));
  for (int i = 0; i < w; ++i) {
    metrics_.push_back(std::make_unique<WorkerMetrics>());
  }
}

Scheduler::~Scheduler() { stop(); }

void Scheduler::start() {
  MutexLock lock(mu_);
  if (running_) return;
  running_ = true;
  threads_.reserve(static_cast<std::size_t>(deques_.workers()));
  for (int w = 0; w < deques_.workers(); ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

void Scheduler::stop() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
    running_ = false;
    ++epoch_;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
}

bool Scheduler::submit(Task* t) {
  // Admission: claim one of queue_depth in-flight slots or shed. The
  // bound covers queued + running, so the per-shard rings (sized to
  // queue_depth) can never overflow.
  int cur = pending_.load(std::memory_order_relaxed);
  do {
    if (cur >= opt_.queue_depth) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  } while (!pending_.compare_exchange_weak(cur, cur + 1,
                                           std::memory_order_acq_rel));
  // Placement: shard by instance key, so jobs sharing a prepared
  // instance land on one worker and keep its arena warm. Purely a
  // performance hint — stealing rebalances, and results don't depend on
  // placement.
  const int shard = static_cast<int>(std::hash<std::string>{}(t->job.key) %
                                     static_cast<std::size_t>(
                                         deques_.workers()));
  const bool pushed = deques_.push(shard, t);
  CCG_CHECK_MSG(pushed, "scheduler ring overflow despite admission bound");
  submitted_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    ++epoch_;
  }
  work_cv_.notify_one();
  return true;
}

void Scheduler::drain() {
  UniqueLock lock(mu_);
  while (pending_.load(std::memory_order_acquire) != 0) {
    idle_cv_.wait(lock);
  }
}

void Scheduler::worker_loop(int w) {
  Task* t = nullptr;
  for (;;) {
    // Snapshot the submit epoch BEFORE scanning the deques: a submit
    // that lands mid-scan bumps the epoch past the snapshot, so the
    // wait below returns immediately and the scan reruns. Snapshotting
    // after the scan would let that submit slip between scan and sleep
    // — a lost wakeup with the job sitting queued.
    std::uint64_t seen;
    {
      MutexLock lock(mu_);
      if (!running_) return;
      seen = epoch_;
    }
    if (deques_.pop_local(w, &t)) {
      execute(w, t);
      continue;
    }
    // Own shard empty: try to steal. The failpoint lets tests inject
    // delays right at the steal decision — perturbing who steals what,
    // which must not perturb the drained report.
    CCG_FAILPOINT_ARG("server.steal", static_cast<std::uint64_t>(w));
    if (deques_.steal(w, &t)) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      execute(w, t);
      continue;
    }
    UniqueLock lock(mu_);
    while (running_ && epoch_ == seen) work_cv_.wait(lock);
    if (!running_) return;
  }
}

// ccg-lint: zero-alloc
void Scheduler::execute(int w, Task* t) {
  const auto t0 = clock_type::now();
  bool from_cache = false;
  if (opt_.use_result_cache && cache_ != nullptr &&
      cache_->results.enabled()) {
    if (auto hit = cache_->results.get(t->result_key)) {
      // Whole-result replay: the cached result came from an identical
      // (recipe, seed, algo) run, so every deterministic field already
      // matches what running would produce.
      t->result = *hit;
      t->result.wall_ns = 0;
      result_hits_.fetch_add(1, std::memory_order_relaxed);
      from_cache = true;
    }
  }
  if (!from_cache) {
    std::shared_ptr<const svc::Instance> inst;
    if (cache_ != nullptr) {
      inst = cache_->instance_for(t->job);
    } else {
      // ccg-lint: allow(zero-alloc): cache-less run builds the instance cold
      inst = std::make_shared<const svc::Instance>(
          svc::build_instance(t->job));
    }
    svc::RunPolicy pol = opt_.policy;
    std::shared_ptr<const color::DenseSnapshot> preload;
    std::shared_ptr<color::DenseSnapshot> capture;
    if (opt_.use_dense_cache && cache_ != nullptr &&
        cache_->dense.enabled() &&
        (t->job.algo == Algo::kHighDegree || t->job.algo == Algo::kAuto)) {
      preload = cache_->dense.get(t->dense_key);
      if (preload) {
        pol.dense_preload = preload.get();
        dense_hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // ccg-lint: allow(zero-alloc): dense-cache miss primes a capture
        capture = std::make_shared<color::DenseSnapshot>();
        pol.dense_capture = capture.get();
      }
    }
    slots_[static_cast<std::size_t>(w)].run(*inst, t->job, pol, &t->result);
    // `captured` stays false unless the run actually reached the dense
    // build (kAuto may dispatch low-degree; failures bail before it).
    if (capture && capture->captured) {
      cache_->dense.put(t->dense_key, std::move(capture));
      dense_captures_.fetch_add(1, std::memory_order_relaxed);
    }
    if (opt_.use_result_cache && cache_ != nullptr &&
        cache_->results.enabled() && result_cacheable(t->result)) {
      // ccg-lint: allow(zero-alloc): first completion populates the cache
      auto cached = std::make_shared<const svc::JobResult>(t->result);
      cache_->results.put(t->result_key, std::move(cached));
    }
  }
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock_type::now() -
                                                           t0)
          .count());
  const int cls = static_cast<int>(t->job.algo);
  if (cls >= 0 && cls < kNumClasses) {
    metrics_[static_cast<std::size_t>(w)]->by_class[cls].record_ns(ns);
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last in-flight job: wake drain(). The brief lock orders this
    // notify after any drain() predicate check in progress.
    MutexLock lock(mu_);
    idle_cv_.notify_all();
  }
}

Scheduler::Counters Scheduler::counters() const {
  Counters c;
  c.submitted = submitted_.load(std::memory_order_relaxed);
  c.completed = completed_.load(std::memory_order_relaxed);
  c.shed = shed_.load(std::memory_order_relaxed);
  c.steals = steals_.load(std::memory_order_relaxed);
  c.result_hits = result_hits_.load(std::memory_order_relaxed);
  c.dense_hits = dense_hits_.load(std::memory_order_relaxed);
  c.dense_captures = dense_captures_.load(std::memory_order_relaxed);
  return c;
}

void Scheduler::merge_latency(LatencyHistogram* per_class) const {
  for (const auto& m : metrics_) {
    for (int c = 0; c < kNumClasses; ++c) {
      per_class[c].add(m->by_class[c]);
    }
  }
}

}  // namespace ccg::server
