// Cross-job caches of the serving mode, under one LRU byte budget each.
//
// Two things are worth remembering across jobs and clients:
//
//   * prepared instances (svc::Instance) — a server sees the same
//     recipes again and again across jobs and requests (manifest repeats
//     included), so instances live in an LRU keyed on JobSpec::key with
//     single-flight building (concurrent misses on one key build once,
//     everyone shares the result);
//   * whole results (svc::JobResult) — a repeated (recipe, seed, algo)
//     request is answered without running at all; only clean first-
//     attempt successes are cached so replays can't resurrect a fault.
//
// The caches only ever *accelerate*: every hit path is bit-identical to
// the corresponding miss path, so the deterministic (no-timing) report is
// unaffected by cache state. Hit/miss/eviction counters are timing-class
// data and surface through `stats` only.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/thread_safety.hpp"
#include "svc/service.hpp"

namespace ccg::server {

// String-keyed LRU with a byte budget and single-flight get_or_build.
// All operations are thread-safe; the builder runs outside the cache
// lock, so a slow build never blocks unrelated hits.
template <class V>
class LruCache {
 public:
  using BytesFn = std::size_t (*)(const V&);

  LruCache(std::size_t budget_bytes, BytesFn bytes_of)
      : budget_(budget_bytes), bytes_of_(bytes_of) {}

  // A zero budget disables the cache: get() always misses, put() drops,
  // get_or_build() builds fresh every time (no sharing).
  bool enabled() const { return budget_ > 0; }

  std::shared_ptr<const V> get(const std::string& key) {
    if (!enabled()) return nullptr;
    MutexLock lock(mu_);
    return get_locked(key);
  }

  void put(const std::string& key, std::shared_ptr<const V> value) {
    if (!enabled() || !value) return;
    MutexLock lock(mu_);
    put_locked(key, std::move(value));
  }

  // Hit, or run `build` exactly once per key across concurrent callers
  // (later callers block on the first's result). The hit path never
  // constructs a promise — it sits on the scheduler's per-job fast path,
  // which must stay allocation-free.
  template <class Builder>
  std::shared_ptr<const V> get_or_build(const std::string& key,
                                        Builder&& build) {
    if (!enabled()) return build();
    std::shared_future<std::shared_ptr<const V>> fut;
    bool wait = false;
    {
      MutexLock lock(mu_);
      if (auto v = lookup_locked(key)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return v;
      }
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        fut = it->second;
        wait = true;
      }
    }
    if (wait) {
      // Single-flight wait counts as a hit: the build it shares was
      // charged as the miss.
      hits_.fetch_add(1, std::memory_order_relaxed);
      return fut.get();
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    std::promise<std::shared_ptr<const V>> prom;
    bool owner = false;
    {
      MutexLock lock(mu_);
      if (auto v = lookup_locked(key)) return v;  // lost a fill race
      auto it = inflight_.find(key);
      if (it == inflight_.end()) {
        fut = prom.get_future().share();
        inflight_.emplace(key, fut);
        owner = true;
      } else {
        fut = it->second;
      }
    }
    if (!owner) return fut.get();
    std::shared_ptr<const V> v;
    try {
      v = build();
    } catch (...) {
      {
        MutexLock lock(mu_);
        inflight_.erase(key);
      }
      prom.set_exception(std::current_exception());
      throw;
    }
    {
      MutexLock lock(mu_);
      inflight_.erase(key);
      put_locked(key, v);
    }
    prom.set_value(v);
    return v;
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
  };

  Stats stats() const {
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    MutexLock lock(mu_);
    s.entries = entries_.size();
    s.bytes = bytes_;
    return s;
  }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const V> value;
    std::size_t bytes = 0;
  };

  // Lookup + MRU bump, no counter updates (callers charge hit/miss
  // themselves — get_or_build's double-checked slow path would otherwise
  // double-count).
  std::shared_ptr<const V> lookup_locked(const std::string& key)
      CCG_REQUIRES(mu_) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);  // bump to MRU
    return it->second->value;
  }

  std::shared_ptr<const V> get_locked(const std::string& key)
      CCG_REQUIRES(mu_) {
    auto v = lookup_locked(key);
    (v ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    return v;
  }

  void put_locked(const std::string& key, std::shared_ptr<const V> value)
      CCG_REQUIRES(mu_) {
    if (index_.count(key)) return;  // racing put of the same key
    const std::size_t b = bytes_of_(*value);
    if (b > budget_) return;  // would evict everything and still not fit
    entries_.push_front(Entry{key, std::move(value), b});
    index_[key] = entries_.begin();
    bytes_ += b;
    while (bytes_ > budget_ && !entries_.empty()) {
      const Entry& victim = entries_.back();
      bytes_ -= victim.bytes;
      index_.erase(victim.key);
      entries_.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const std::size_t budget_;
  const BytesFn bytes_of_;
  mutable Mutex mu_;
  std::size_t bytes_ CCG_GUARDED_BY(mu_) = 0;  // resident total
  std::list<Entry> entries_ CCG_GUARDED_BY(mu_);  // MRU first
  std::unordered_map<std::string, typename std::list<Entry>::iterator>
      index_ CCG_GUARDED_BY(mu_);
  std::unordered_map<std::string,
                     std::shared_future<std::shared_ptr<const V>>>
      inflight_ CCG_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

// Approximate resident sizes (capacities where they dominate). Bytes
// budgets bound memory, they don't meter it exactly. An instance charges
// every vector its cluster graph or virtual encoding holds (heap_bytes),
// so an instance larger than the instance budget is never cached.
std::size_t instance_bytes(const svc::Instance& inst);
std::size_t result_bytes(const svc::JobResult& r);

// The result cache's key: the instance key plus every execution knob a
// result depends on (algorithm, seed, eps, oracle). Threads are
// deliberately absent: results are bit-identical across thread counts.
std::string result_key(const svc::JobSpec& job);

// Only clean results enter the result cache: a first-attempt success
// with no degradation. Failures, retried and degraded runs re-execute —
// their outcome may depend on transient conditions (deadlines, injected
// faults) the cache must not freeze.
bool result_cacheable(const svc::JobResult& r);

struct CacheBudgets {
  std::size_t instance_bytes = 48u << 20;
  std::size_t result_bytes = 4u << 20;
};

// The server's cache set. One per server; shared by all scheduler
// workers.
struct ServeCache {
  explicit ServeCache(const CacheBudgets& budgets)
      : instances(budgets.instance_bytes, &server::instance_bytes),
        results(budgets.result_bytes, &server::result_bytes) {}

  // Shared instance lookup: single-flight build through
  // svc::build_instance (failed builds are cached too — the error is as
  // deterministic as the instance).
  std::shared_ptr<const svc::Instance> instance_for(const svc::JobSpec& job) {
    return instances.get_or_build(job.key, [&job] {
      return std::make_shared<const svc::Instance>(svc::build_instance(job));
    });
  }

  LruCache<svc::Instance> instances;
  LruCache<svc::JobResult> results;
};

}  // namespace ccg::server
