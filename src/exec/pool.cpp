#include "exec/pool.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ccg::exec {

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
  std::uint64_t gen;
  {
    MutexLock lock(mu_);
    CCG_CHECK_MSG(job_ == nullptr, "resize during a dispatch");
    if (target == workers_) return;
    workers_ = target;
    gen = generation_;
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
  for (;;) {
    RawShardFn fn = nullptr;
    void* ctx = nullptr;
    std::int64_t total = 0;
    int workers = 0;
    {
      UniqueLock lock(mu_);
      // Explicit while-loop (not the predicate overload): the guarded
      // reads stay inside the annotated locked scope this way — a lambda
      // predicate is analyzed as a separate, unannotated function.
      while (!(stop_ || w >= workers_ || generation_ != seen)) {
        cv_start_.wait(lock);
      }
      if (stop_ || w >= workers_) return;
      seen = generation_;
      fn = job_;
      ctx = job_ctx_;
      total = total_;
      workers = workers_;
    }
    const auto [begin, end] = shard_bounds(total, workers, w);
    try {
      if (begin < end) fn(ctx, w, begin, end);
    } catch (...) {
      errors_[static_cast<std::size_t>(w)] = std::current_exception();
    }
    {
      MutexLock lock(mu_);
      --pending_;
    }
    cv_done_.notify_one();
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
  {
    MutexLock lock(mu_);
    CCG_CHECK_MSG(job_ == nullptr, "nested for_shards on one pool");
    std::fill(errors_.begin(), errors_.end(), nullptr);
    job_ = fn;
    job_ctx_ = ctx;
    total_ = total;
    pending_ = workers_ - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  const auto [begin, end] = shard_bounds(total, workers_, 0);
  try {
    if (begin < end) fn(ctx, 0, begin, end);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  {
    UniqueLock lock(mu_);
    while (pending_ != 0) cv_done_.wait(lock);
    job_ = nullptr;
    job_ctx_ = nullptr;
  }
  for (const auto& err : errors_) {
    if (err) std::rethrow_exception(err);
  }
}

}  // namespace ccg::exec
