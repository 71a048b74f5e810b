// Tests for the parallel round engine (src/exec): thread-pool sanity
// (work actually distributes, exceptions propagate deterministically),
// counter-based RNG streams, and the hard guarantee of the whole design —
// pipeline colorings bit-identical for any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "ccg/ccg.hpp"
#include "helpers.hpp"

namespace ccg {
namespace {

// Dispatches body(worker, begin, end) through the pool's raw-callable
// form, as ParallelRound::shards does.
template <class Body>
void dispatch(exec::ThreadPool& pool, std::int64_t total, Body&& body) {
  using B = std::remove_reference_t<Body>;
  pool.for_shards(
      total,
      [](void* ctx, int w, std::int64_t b, std::int64_t e) {
        (*static_cast<B*>(ctx))(w, b, e);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

// Long enough past the pool's spin budget (about 100 us) that idle
// workers, and a caller waiting at a join, have parked on their
// condition variables.
void sleep_past_spin_budget() {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

// Bitmask of the workers that received a non-empty shard of a domain
// large enough to give every worker one.
std::uint32_t workers_used(exec::ThreadPool& pool) {
  std::atomic<std::uint32_t> seen{0};
  dispatch(pool, 4096, [&](int w, std::int64_t, std::int64_t) {
    seen.fetch_or(1u << w);
  });
  return seen.load();
}

// Whether one dispatch over [0, total) ran every index exactly once.
bool covers_once(exec::ThreadPool& pool, std::int64_t total) {
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(total));
  for (auto& h : hits) h.store(0);
  dispatch(pool, total, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) {
    if (h.load() != 1) return false;
  }
  return true;
}

TEST(ThreadPool, ResolvesWorkerCounts) {
  EXPECT_EQ(exec::ThreadPool(1).workers(), 1);
  EXPECT_EQ(exec::ThreadPool(3).workers(), 3);
  EXPECT_GE(exec::ThreadPool(0).workers(), 1);  // hardware concurrency
}

TEST(ThreadPool, ShardsCoverEveryIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  EXPECT_TRUE(covers_once(pool, 10007));  // prime: uneven last chunk
}

TEST(ThreadPool, WorkDistributesAcrossWorkers) {
  exec::ThreadPool pool(4);
  // All four workers got a non-empty chunk of a large-enough domain.
  EXPECT_EQ(workers_used(pool), 0b1111u);
}

TEST(ThreadPool, DispatchAfterWorkersParked) {
  // The first dispatch leaves the workers spinning; after the sleep they
  // are parked, and the next dispatch has to wake them.
  exec::ThreadPool pool(4);
  ASSERT_TRUE(covers_once(pool, 1000));
  sleep_past_spin_budget();
  EXPECT_TRUE(covers_once(pool, 1000));
  EXPECT_EQ(workers_used(pool), 0b1111u);
}

TEST(ThreadPool, BackToBackTinyDispatches) {
  // Dispatches that end long before the spin budget does: every worker
  // must pick up each new generation exactly once, also when the total is
  // below the worker count and some shards are empty.
  for (const int workers : {2, 4, 8}) {
    exec::ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(64);
    for (int r = 0; r < 10000; ++r) {
      const std::int64_t total = 1 + r % 61;
      for (auto& h : hits) h.store(0, std::memory_order_relaxed);
      dispatch(pool, total, [&](int, std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      });
      for (std::int64_t i = 0; i < 64; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), i < total)
            << "workers " << workers << " dispatch " << r << " index " << i;
      }
    }
  }
}

TEST(ThreadPool, ResizeBetweenDispatchesSpinningOrParked) {
  // 4 -> 2 -> 8 right after a dispatch (the workers still spin) and after
  // they parked: retired workers exit, the new ones join the next dispatch.
  for (const bool parked : {false, true}) {
    SCOPED_TRACE(parked ? "parked" : "spinning");
    exec::ThreadPool pool(4);
    ASSERT_TRUE(covers_once(pool, 777));
    if (parked) sleep_past_spin_budget();
    pool.resize(2);
    EXPECT_EQ(pool.workers(), 2);
    EXPECT_TRUE(covers_once(pool, 777));
    EXPECT_EQ(workers_used(pool), 0b11u);
    if (parked) sleep_past_spin_budget();
    pool.resize(8);
    EXPECT_EQ(pool.workers(), 8);
    EXPECT_TRUE(covers_once(pool, 777));
    EXPECT_EQ(workers_used(pool), 0xFFu);
  }
}

TEST(ThreadPool, ParkedWorkerExceptionRethrownLowestWorkerFirst) {
  // Workers 2 and 3 fail after a park; worker 3 throws first, yet the
  // caller sees worker 2's error. The pool then runs the next dispatch.
  exec::ThreadPool pool(4);
  ASSERT_TRUE(covers_once(pool, 100));
  sleep_past_spin_budget();
  try {
    dispatch(pool, 4096, [](int w, std::int64_t, std::int64_t) {
      if (w == 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        throw std::runtime_error("worker 2");
      }
      if (w == 3) throw std::runtime_error("worker 3");
    });
    FAIL() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "worker 2");
  }
  EXPECT_TRUE(covers_once(pool, 4096));
}

TEST(ThreadPool, ShardBoundsAreStaticAndOrdered) {
  // Chunk boundaries are a pure function of (total, workers): contiguous,
  // ordered by worker id, covering [0, total). This is what makes
  // worker-order concatenation equal to input order.
  for (const int workers : {1, 2, 3, 8}) {
    for (const std::int64_t total : {0, 1, 7, 64, 10007}) {
      std::int64_t expect_begin = 0;
      for (int w = 0; w < workers; ++w) {
        const auto [b, e] = exec::shard_bounds(total, workers, w);
        EXPECT_EQ(b, std::min(total, expect_begin));
        EXPECT_LE(b, e);
        expect_begin = e;
      }
      EXPECT_EQ(expect_begin, total);
    }
  }
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  exec::ThreadPool pool(4);
  const auto boom = [](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      CCG_CHECK_MSG(i != 3000, "worker failure");
    }
  };
  EXPECT_THROW(dispatch(pool, 4096, boom), ContractViolation);
  // The pool survives a failed round and runs the next one normally.
  std::atomic<int> count{0};
  dispatch(pool, 100, [&](int, std::int64_t b, std::int64_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ExceptionsPropagateFromCallerShardToo) {
  // Shard 0 runs on the calling thread; its failures take the same path.
  exec::ThreadPool pool(2);
  EXPECT_THROW(dispatch(pool, 10,
                        [](int w, std::int64_t, std::int64_t) {
                          CCG_CHECK_MSG(w != 0, "caller shard failure");
                        }),
               ContractViolation);
}

TEST(StreamRng, PureFunctionOfKey) {
  Rng a = stream_rng(42, 7, 1001);
  Rng b = stream_rng(42, 7, 1001);
  for (int i = 0; i < 64; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(StreamRng, DistinctKeysGiveDistinctStreams) {
  std::set<std::uint64_t> firsts;
  for (std::uint64_t seed : {1ull, 2ull}) {
    for (std::uint64_t round : {0ull, 1ull, 77ull}) {
      for (std::uint64_t v : {0ull, 1ull, 2ull, 999ull}) {
        firsts.insert(stream_rng(seed, round, v).next_u64());
      }
    }
  }
  EXPECT_EQ(firsts.size(), 2u * 3u * 4u);
}

TEST(StreamRng, StateTrialRngMatchesCanonicalStreams) {
  // State caches the (seed, round) prefix of the key chain; the cached
  // path must stay bit-equal to the canonical stream_rng derivation.
  Rng grng(5);
  const auto g = graph::gnm(50, 200, grng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  auto params = color::Params::defaults_for(g.n(), 77);
  color::State st(rt, params);
  for (std::uint64_t round = 1; round <= 5; ++round) {
    st.bump_trial_round();
    for (const std::uint64_t v : {0ull, 1ull, 49ull}) {
      Rng a = st.trial_rng(v);
      Rng b = stream_rng(params.seed, round, v);
      for (int i = 0; i < 8; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
    }
  }
}

// ---- determinism sweep: the acceptance bar of the parallel engine ----

Outcome run_pipeline_with_threads(const graph::Graph& g, std::uint64_t seed,
                                  int threads) {
  const auto cg = cluster::ClusterGraph::singleton(g);
  auto params = color::Params::defaults_for(g.n(), seed);
  params.threads = threads;
  return testing::solve(Problem::cluster(cg), Algo::kHighDegree, params);
}

graph::Graph planted_instance(int delta, int cliques, int ext, int sparse,
                              std::uint64_t seed) {
  Rng rng(seed);
  graph::PlantedSpec spec;
  spec.delta = delta;
  spec.num_cliques = cliques;
  spec.anti_deg = 2;
  spec.external_deg = ext;
  spec.num_sparse = sparse;
  spec.sparse_avg_deg = 0.25 * delta;
  spec.external_to_sparse = sparse > 0 ? 0.3 : 0.0;
  return graph::make_planted_acd(spec, rng).g;
}

TEST(ParallelDeterminism, BitIdenticalColoringsAcrossThreadCounts) {
  // Several seeds x instance shapes; threads in {1, 2, 8} must agree on
  // every output bit (colors, round counts, structural tallies).
  struct Shape {
    const char* name;
    graph::Graph g;
  };
  Rng grng(2024);
  std::vector<Shape> shapes;
  shapes.push_back({"noncabal_mixture", planted_instance(96, 3, 16, 120, 5)});
  shapes.push_back({"cabal_heavy", planted_instance(96, 4, 4, 0, 6)});
  shapes.push_back({"gnm_sparse", graph::gnm(700, 7000, grng)});

  for (const auto& shape : shapes) {
    for (const std::uint64_t seed : {3ull, 11ull}) {
      const auto base_out = run_pipeline_with_threads(shape.g, seed, 1);
      ASSERT_TRUE(base_out.ok()) << base_out.error.message;
      const auto& base = base_out.result;
      cluster::check_proper_total(shape.g, base.colors, base.num_colors);
      for (const int threads : {2, 8}) {
        const auto out = run_pipeline_with_threads(shape.g, seed, threads);
        ASSERT_TRUE(out.ok()) << out.error.message;
        const auto& res = out.result;
        ASSERT_EQ(res.colors, base.colors)
            << shape.name << " seed " << seed << " threads " << threads;
        EXPECT_EQ(res.num_colors, base.num_colors);
        EXPECT_EQ(res.h_rounds, base.h_rounds);
        EXPECT_EQ(res.g_rounds, base.g_rounds);
        EXPECT_EQ(res.num_cliques, base.num_cliques);
        EXPECT_EQ(res.num_cabals, base.num_cabals);
        EXPECT_EQ(res.fallback_count, base.fallback_count);
        EXPECT_EQ(res.retry_count, base.retry_count);
      }
    }
  }
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreStable) {
  // Same seed, same thread count, run twice: stamping races or partition
  // leaks would show up as run-to-run drift here (and as TSan reports in
  // the CI tsan job, which runs this binary with CCG_TEST_THREADS=4).
  int threads = 4;
  if (const char* env = std::getenv("CCG_TEST_THREADS")) {
    threads = std::max(1, std::atoi(env));
  }
  const auto g = planted_instance(96, 3, 16, 150, 9);
  const auto a = run_pipeline_with_threads(g, 21, threads);
  const auto b = run_pipeline_with_threads(g, 21, threads);
  ASSERT_TRUE(a.ok()) << a.error.message;
  ASSERT_TRUE(b.ok()) << b.error.message;
  EXPECT_EQ(a.result.colors, b.result.colors);
  EXPECT_EQ(a.result.h_rounds, b.result.h_rounds);
}

}  // namespace
}  // namespace ccg
