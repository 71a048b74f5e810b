// Persistent worker pool for the parallel round engine.
//
// The paper's algorithm is a synchronized round model: within one round,
// every vertex acts independently on the previous round's state. That is
// exactly fork/join parallelism over CSR rows, so the pool exposes one
// primitive: for_shards(total, fn) splits [0, total) into one contiguous
// chunk per worker (chunked static sharding — chunk boundaries are a pure
// function of (total, workers), never of timing) and runs fn(worker,
// begin, end) on each, returning only when every chunk finished.
//
// Threads are spawned once and parked on a condition variable between
// rounds; a pipeline run performs thousands of fork/joins, so the pool is
// persistent rather than per-round. Exceptions thrown inside a shard
// (CCG_CHECK contract violations included) are captured per worker and
// rethrown on the calling thread after the join — lowest worker index
// first, so the surfaced error is deterministic too.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/thread_safety.hpp"

namespace ccg::exec {

class ThreadPool {
 public:
  using ShardFn =
      std::function<void(int worker, std::int64_t begin, std::int64_t end)>;
  // Raw-callable form: no std::function materialization, so callers that
  // fork/join thousands of times per run (ParallelRound::shards) stay
  // allocation-free on the multi-threaded path too. `ctx` must outlive
  // the call (for_shards is synchronous, so a stack lambda works).
  using RawShardFn = void (*)(void* ctx, int worker, std::int64_t begin,
                              std::int64_t end);

  // workers <= 0 selects the hardware concurrency. A 1-worker pool spawns
  // no threads: for_shards degenerates to one inline call.
  explicit ThreadPool(int workers = 1);
  ~ThreadPool();

  // Re-target the pool to `workers` (<= 0 -> hardware concurrency) without
  // reconstructing it: grows by spawning only the missing threads, shrinks
  // by retiring only the surplus ones. Must not be called while a dispatch
  // is in flight. No-op when the resolved count already matches.
  void resize(int workers);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return workers_; }

  // Fork/join over [0, total): worker w runs fn(ctx, w, begin_w, end_w)
  // on its static chunk. Blocks until all chunks are done; the caller's
  // thread executes chunk 0.
  void for_shards(std::int64_t total, RawShardFn fn, void* ctx);

  // Convenience overload for std::function callers (tests, one-off call
  // sites where the per-call allocation does not matter).
  void for_shards(std::int64_t total, const ShardFn& fn) {
    for_shards(
        total,
        [](void* ctx, int w, std::int64_t b, std::int64_t e) {
          (*static_cast<const ShardFn*>(ctx))(w, b, e);
        },
        const_cast<void*>(static_cast<const void*>(&fn)));
  }

  // Install a cooperative cancellation token (nullptr disarms). Checked
  // at for_shards entry; expiry surfaces as a CancelledError thrown on
  // the calling thread. The caller must keep the token alive across
  // dispatches and must not swap it while a dispatch is in flight.
  void set_cancel(const CancelToken* token) { cancel_ = token; }
  const CancelToken* cancel_token() const { return cancel_; }

  // workers <= 0 -> hardware concurrency (at least 1).
  static int resolve(int requested);

 private:
  void worker_loop(int w, std::uint64_t seen);

  // Externally synchronized: written only by resize(), whose contract
  // forbids calling it while a dispatch is in flight, from the single
  // controlling thread that also calls for_shards. Worker
  // threads read it under mu_ (dispatch handoff); the controlling
  // thread's unlocked reads race nothing.
  int workers_ = 1;
  std::vector<std::thread> threads_;  // controlling thread only

  Mutex mu_;
  CondVar cv_start_;
  CondVar cv_done_;
  RawShardFn job_ CCG_GUARDED_BY(mu_) = nullptr;
  void* job_ctx_ CCG_GUARDED_BY(mu_) = nullptr;
  std::int64_t total_ CCG_GUARDED_BY(mu_) = 0;
  std::uint64_t generation_ CCG_GUARDED_BY(mu_) = 0;
  int pending_ CCG_GUARDED_BY(mu_) = 0;
  bool stop_ CCG_GUARDED_BY(mu_) = false;
  // Deliberately NOT guarded by mu_: worker w writes only errors_[w]
  // during a dispatch, and the fork/join barrier (pending_ handoff under
  // mu_) provides the happens-before edge to the caller's post-join
  // reads. Resized only while no dispatch is in flight.
  std::vector<std::exception_ptr> errors_;
  // Externally synchronized (set_cancel contract: never swapped while a
  // dispatch is in flight).
  const CancelToken* cancel_ = nullptr;
};

// Static chunk of [0, total) assigned to worker w out of `workers`.
inline std::pair<std::int64_t, std::int64_t> shard_bounds(std::int64_t total,
                                                          int workers,
                                                          int w) {
  const std::int64_t chunk = (total + workers - 1) / workers;
  const std::int64_t begin = std::min<std::int64_t>(total, w * chunk);
  const std::int64_t end = std::min<std::int64_t>(total, begin + chunk);
  return {begin, end};
}

}  // namespace ccg::exec
