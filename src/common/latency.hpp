// Latency measurement shared by the benches and the serving layer.
//
// Two tools live here:
//
//  * TimedStats / timed(): the wall-clock measurement harness (explicit
//    warmup + repetitions, min/quartiles/mean/max, ns/op) every bench
//    binary uses — moved out of bench/util.hpp so library code (the
//    server's SLO report) and the benches share one implementation.
//
//  * LatencyHistogram: a lock-free log2-bucketed latency reservoir for
//    the serving SLO metrics (p50/p95/p99 per job class). Each scheduler
//    worker owns one histogram and records with relaxed atomic adds (no
//    locks, no allocation — the warm fast path stays 0 allocs/job);
//    report time merges the per-worker reservoirs with add() and reads
//    quantiles off the merged counts. Buckets are powers of two with
//    linear interpolation inside a bucket, so quantiles carry <= 2x
//    relative error — plenty for SLO gates, and immune to reservoir-
//    sampling bias under bursty arrival.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/assert.hpp"
#include "common/thread_safety.hpp"

namespace ccg {

// ---- timed measurement harness ----
//
// Wall-clock measurement with explicit warmup and repetition control. The
// reported figure is the *minimum* over repetitions (least-noise estimator
// for a deterministic workload); the quartiles, mean and max ride along
// for dispersion.
struct TimedStats {
  double min_ns = 0;
  double p25_ns = 0;
  double median_ns = 0;
  double p75_ns = 0;
  double mean_ns = 0;
  double max_ns = 0;
  int reps = 0;
  std::int64_t ops = 1;  // work items per repetition, for ns/op

  double ns_per_op() const {
    return ops > 0 ? min_ns / static_cast<double>(ops) : min_ns;
  }
};

// q-quantile of n >= 1 ascending samples, interpolated linearly between
// the two nearest ranks.
inline double sorted_quantile(const double* x, int n, double q) {
  const double pos = q * static_cast<double>(n - 1);
  const int lo = static_cast<int>(pos);
  const int hi = std::min(lo + 1, n - 1);
  return x[lo] + (pos - lo) * (x[hi] - x[lo]);
}

// The quartiles need every sample. They live in a fixed buffer, so timing
// allocates nothing (the alloc-gated benches count allocations across a
// timed() call), which caps the repetitions.
inline constexpr int kTimedMaxReps = 64;

template <class F>
inline TimedStats timed(F&& fn, int warmup, int reps, std::int64_t ops = 1) {
  CCG_CHECK_MSG(reps <= kTimedMaxReps,
                "timed(): " << reps << " reps, at most " << kTimedMaxReps);
  using clock = std::chrono::steady_clock;
  for (int i = 0; i < warmup; ++i) fn();
  TimedStats st;
  st.reps = reps;
  st.ops = ops;
  std::array<double, kTimedMaxReps> ns{};
  for (int i = 0; i < reps; ++i) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    ns[i] = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
  }
  if (reps <= 0) return st;
  std::sort(ns.begin(), ns.begin() + reps);
  st.min_ns = ns[0];
  st.p25_ns = sorted_quantile(ns.data(), reps, 0.25);
  st.median_ns = sorted_quantile(ns.data(), reps, 0.5);
  st.p75_ns = sorted_quantile(ns.data(), reps, 0.75);
  st.max_ns = ns[static_cast<std::size_t>(reps) - 1];
  st.mean_ns = std::accumulate(ns.begin(), ns.begin() + reps, 0.0) / reps;
  return st;
}

// ---- lock-free latency reservoir ----

class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;  // bucket b covers [2^(b-1), 2^b) ns

  LatencyHistogram() { reset(); }
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_ns_.store(0, std::memory_order_relaxed);
    max_ns_.store(0, std::memory_order_relaxed);
  }

  // Record one sample. Relaxed atomics only: safe from any thread, no
  // lock, no allocation. Negative samples clamp to 0.
  // Intentionally lock-free (CCG_NO_THREAD_SAFETY_ANALYSIS): this sits on
  // the scheduler's per-job hot path, where a mutex would serialize the
  // workers; every member is a relaxed atomic and no cross-field
  // invariant exists, so torn multi-field snapshots cannot occur.
  void record_ns(double ns) {
    record_ns(ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
  }
  void record_ns(std::uint64_t ns) CCG_NO_THREAD_SAFETY_ANALYSIS {
    buckets_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t seen = max_ns_.load(std::memory_order_relaxed);
    while (ns > seen && !max_ns_.compare_exchange_weak(
                            seen, ns, std::memory_order_relaxed)) {
    }
  }

  // Merge `other`'s counts into this reservoir (report-time fold of the
  // per-worker histograms). Relaxed reads: samples recorded concurrently
  // with the merge may or may not be included, which is the usual
  // monitoring contract; drained reports merge quiescent reservoirs.
  // Intentionally lock-free (CCG_NO_THREAD_SAFETY_ANALYSIS): see
  // record_ns — same relaxed-atomic, no-cross-field-invariant argument.
  void add(const LatencyHistogram& other) CCG_NO_THREAD_SAFETY_ANALYSIS {
    for (int b = 0; b < kBuckets; ++b) {
      const auto c = other.buckets_[static_cast<std::size_t>(b)].load(
          std::memory_order_relaxed);
      if (c) {
        buckets_[static_cast<std::size_t>(b)].fetch_add(
            c, std::memory_order_relaxed);
      }
    }
    count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    sum_ns_.fetch_add(other.sum_ns_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    const auto om = other.max_ns_.load(std::memory_order_relaxed);
    std::uint64_t seen = max_ns_.load(std::memory_order_relaxed);
    while (om > seen && !max_ns_.compare_exchange_weak(
                            seen, om, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double mean_ns() const {
    const auto c = count();
    return c ? static_cast<double>(
                   sum_ns_.load(std::memory_order_relaxed)) /
                   static_cast<double>(c)
             : 0.0;
  }
  double max_observed_ns() const {
    return static_cast<double>(max_ns_.load(std::memory_order_relaxed));
  }

  // q-quantile in ns (q in [0, 1]), linearly interpolated inside the
  // containing power-of-two bucket. 0 when empty.
  double quantile_ns(double q) const {
    const auto total = count();
    if (total == 0) return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    const double target = q * static_cast<double>(total);
    double cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const auto c = static_cast<double>(
          buckets_[static_cast<std::size_t>(b)].load(
              std::memory_order_relaxed));
      if (c == 0) continue;
      if (cum + c >= target) {
        const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
        const double hi = std::ldexp(1.0, b);
        const double frac = std::min(1.0, std::max(0.0, (target - cum) / c));
        return lo + frac * (hi - lo);
      }
      cum += c;
    }
    return max_observed_ns();
  }

 private:
  static int bucket_of(std::uint64_t ns) {
    int b = 0;
    while (ns && b < kBuckets - 1) {
      ns >>= 1;
      ++b;
    }
    return b;
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_;
  std::atomic<std::uint64_t> count_;
  std::atomic<std::uint64_t> sum_ns_;
  std::atomic<std::uint64_t> max_ns_;
};

}  // namespace ccg
