#include "exec/pool.hpp"

#include <algorithm>
#include <chrono>

#include "common/assert.hpp"

namespace ccg::exec {

namespace {

// How long a worker polls for the next dispatch, and the caller for the
// join, before blocking on a condition variable. A futex wake-up costs more
// than a typical sequential step between two rounds, so polling that long
// keeps back-to-back forks off the kernel; past it an idle pool sleeps.
constexpr std::int64_t kSpinBudgetNs = 100'000;
// A polling thread yields its core once per this many pauses, so workers
// of an oversubscribed pool (more threads than cores) still get to run.
constexpr int kSpinsPerYield = 32;
// A yield that returns this late means another thread ran on the core. A
// polling thread then only delays the threads it competes with: a parked
// worker's wake-up preempts them, a polling one waits out their time
// slice. So nobody in the pool polls for kQuietNs after that.
constexpr std::int64_t kLateYieldNs = 50'000;
constexpr std::int64_t kQuietNs = 50'000'000;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Polls ready() for up to kSpinBudgetNs; returns whether it became true.
// Does not poll while `quiet_until` lies ahead, and moves it kQuietNs past
// a late yield.
template <class Ready>
bool spin_until(std::atomic<std::int64_t>& quiet_until, Ready&& ready) {
  if (ready()) return true;
  std::int64_t last = now_ns();
  if (last < quiet_until.load(std::memory_order_relaxed)) return false;
  const std::int64_t deadline = last + kSpinBudgetNs;
  for (int i = 1;; ++i) {
    if (ready()) return true;
    cpu_relax();
    if (i % kSpinsPerYield != 0) continue;
    std::this_thread::yield();
    const std::int64_t now = now_ns();
    if (now - last > kLateYieldNs) {
      quiet_until.store(now + kQuietNs, std::memory_order_relaxed);
      return ready();
    }
    if (now >= deadline) return ready();
    last = now;
  }
}

}  // namespace

int ThreadPool::resolve(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1, static_cast<int>(hw));
}

ThreadPool::ThreadPool(int workers) : workers_(resolve(workers)) {
  errors_.assign(static_cast<std::size_t>(workers_), nullptr);
  threads_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w, 0); });
  }
}

void ThreadPool::resize(int workers) {
  const int target = resolve(workers);
  CCG_CHECK_MSG(job_ == nullptr, "resize during a dispatch");
  {
    MutexLock lock(mu_);
    if (target == workers_) return;
    workers_ = target;
  }
  // Shrink: retired workers observe w >= workers_ and exit; join only them.
  cv_start_.notify_all();
  while (static_cast<int>(threads_.size()) > target - 1) {
    threads_.back().join();
    threads_.pop_back();
  }
  // Grow: spawn only the missing workers. errors_ grows but never shrinks,
  // so steady alternation between two thread counts stays allocation-free.
  if (static_cast<int>(errors_.size()) < target) {
    errors_.resize(static_cast<std::size_t>(target), nullptr);
  }
  const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
  for (int w = static_cast<int>(threads_.size()) + 1; w < target; ++w) {
    threads_.emplace_back([this, w, gen] { worker_loop(w, gen); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop(int w, std::uint64_t seen) {
  const auto dispatched = [this, &seen] {
    return generation_.load(std::memory_order_acquire) != seen;
  };
  for (;;) {
    // Only dispatches bump the generation, and resize joins the workers it
    // retires before the next dispatch, so a bump seen while polling is
    // always work for this worker; retiring and stopping are seen parked.
    if (!spin_until(quiet_until_, dispatched)) {
      UniqueLock lock(mu_);
      // Explicit while-loop (not the predicate overload): the guarded
      // reads stay inside the annotated locked scope this way — a lambda
      // predicate is analyzed as a separate, unannotated function.
      while (!(stop_ || w >= workers_ || dispatched())) {
        cv_start_.wait(lock);
      }
      if (stop_ || w >= workers_) return;
    }
    seen = generation_.load(std::memory_order_acquire);
    const auto [begin, end] = shard_bounds(total_, workers_, w);
    try {
      if (begin < end) job_(job_ctx_, w, begin, end);
    } catch (...) {
      errors_[static_cast<std::size_t>(w)] = std::current_exception();
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      MutexLock lock(mu_);
      cv_done_.notify_one();
    }
  }
}

void ThreadPool::for_shards(std::int64_t total, RawShardFn fn, void* ctx) {
  CCG_CHECK(total >= 0);
  check_cancel(cancel_);
  if (total == 0) return;
  if (workers_ == 1) {
    fn(ctx, 0, 0, total);
    return;
  }
  CCG_CHECK_MSG(job_ == nullptr, "nested for_shards on one pool");
  std::fill(errors_.begin(), errors_.end(), nullptr);
  job_ = fn;
  job_ctx_ = ctx;
  total_ = total;
  pending_.store(workers_ - 1, std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    generation_.fetch_add(1, std::memory_order_release);
  }
  cv_start_.notify_all();
  const auto [begin, end] = shard_bounds(total, workers_, 0);
  try {
    if (begin < end) fn(ctx, 0, begin, end);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  const auto joined = [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  };
  if (!spin_until(quiet_until_, joined)) {
    UniqueLock lock(mu_);
    while (!joined()) cv_done_.wait(lock);
  }
  job_ = nullptr;
  job_ctx_ = nullptr;
  for (const auto& err : errors_) {
    if (err) std::rethrow_exception(err);
  }
}

}  // namespace ccg::exec
