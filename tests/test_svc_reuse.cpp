// Job-level counterpart of test_primitives_scratch.cpp: once a JobSlot is
// warm, serving an Algo::kFast job must perform ZERO heap allocations —
// Ledger::reset, Runtime::rebind, State::reset, the TryColor rounds, the
// fallback finisher and the result fill all run on reused storage. Building
// an instance's cluster graph allocates per cluster, never per H-edge.
// Verified with instrumented global new/delete (whole test binary; see
// common/alloc_count.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "ccg/ccg.hpp"
#include "common/alloc_count.hpp"

namespace ccg::svc {
namespace {

// A recurring fast-serving workload: `count` jobs over one shared gnm
// instance, each with its stream-derived seed.
Manifest fast_manifest(int count, int threads) {
  Manifest m;
  m.seed = 7;
  JobSpec base;
  base.gen = "gnm";
  base.gargs.n = 600;
  base.gargs.m = 6000;
  base.algo = Algo::kFast;
  base.threads = threads;
  for (int i = 0; i < count; ++i) {
    JobSpec j = base;
    j.index = i;
    j.key = instance_key(j);
    m.jobs.push_back(std::move(j));
  }
  finalize_job_seeds(m);
  return m;
}

void run_zero_alloc_check(int threads) {
  constexpr int kJobs = 8;
  const auto m = fast_manifest(kJobs, threads);
  const auto inst = build_instance(m.jobs[0]);
  ASSERT_TRUE(inst.error.empty()) << inst.error;

  JobSlot slot;
  JobResult out;
  // Two warmup passes: the first takes every buffer to the high-water
  // capacity of this recurring workload; the second settles the fallback
  // finisher's swap-based double buffers (their capacities ping-pong with
  // per-job round parity, so the maximum needs one extra pass to reach
  // both). Capacities are monotone, so once a full pass runs clean every
  // later identical pass does too.
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kJobs; ++i) {
      slot.run(inst, m.jobs[static_cast<std::size_t>(i)], &out);
      ASSERT_TRUE(out.ok) << out.error;
    }
  }

  const long long before = alloc_count();
  for (int i = 0; i < kJobs; ++i) {
    slot.run(inst, m.jobs[static_cast<std::size_t>(i)], &out);
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_EQ(out.uncolored, 0);
  }
  const long long after = alloc_count();
  EXPECT_EQ(after - before, 0)
      << "fast job allocated in steady state (threads=" << threads << ")";
}

TEST(SvcReuse, FastJobZeroAllocSteadyState) { run_zero_alloc_check(1); }

TEST(SvcReuse, FastJobZeroAllocSteadyStateParallel) {
  // The intra-job round engine's fork/join path is allocation-free too
  // (raw-callable dispatch, persistent workers) — serving stays zero-alloc
  // with Params::threads > 1.
  run_zero_alloc_check(4);
}

// Recurring low-degree workload: `count` Algo::kLowDegree jobs over one
// shared gnm instance (Delta well below delta_low).
Manifest low_manifest(int count) {
  Manifest m;
  m.seed = 11;
  JobSpec base;
  base.gen = "gnm";
  base.gargs.n = 500;
  base.gargs.m = 2000;
  base.algo = Algo::kLowDegree;
  base.threads = 1;
  for (int i = 0; i < count; ++i) {
    JobSpec j = base;
    j.index = i;
    j.key = instance_key(j);
    m.jobs.push_back(std::move(j));
  }
  finalize_job_seeds(m);
  return m;
}

TEST(SvcReuse, LowDegreeJobsReuseTheArena) {
  // ROADMAP item (b): lowdeg used to rebuild its own State per job,
  // bypassing slot reuse entirely. Pin the warm --algo low path: a warm
  // slot must allocate strictly less per job than cold one-slot-per-job
  // serving (the saved allocations are the Ledger/Runtime/State arena
  // construction), and reuse must not change a single output bit.
  constexpr int kJobs = 6;
  const auto m = low_manifest(kJobs);
  const auto inst = build_instance(m.jobs[0]);
  ASSERT_TRUE(inst.error.empty()) << inst.error;

  JobSlot warm;
  JobResult out;
  std::vector<std::int64_t> warm_h(kJobs);
  for (int pass = 0; pass < 2; ++pass) {  // warm every high-water buffer
    for (int i = 0; i < kJobs; ++i) {
      warm.run(inst, m.jobs[static_cast<std::size_t>(i)], &out);
      ASSERT_TRUE(out.ok) << out.error;
    }
  }
  const long long warm_before = alloc_count();
  for (int i = 0; i < kJobs; ++i) {
    warm.run(inst, m.jobs[static_cast<std::size_t>(i)], &out);
    ASSERT_TRUE(out.ok) << out.error;
    warm_h[static_cast<std::size_t>(i)] = out.h_rounds;
  }
  const long long warm_allocs = alloc_count() - warm_before;

  const long long cold_before = alloc_count();
  std::vector<std::int64_t> cold_h(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    JobSlot cold;  // fresh arena per job: the pre-reuse serving shape
    cold.run(inst, m.jobs[static_cast<std::size_t>(i)], &out);
    ASSERT_TRUE(out.ok) << out.error;
    cold_h[static_cast<std::size_t>(i)] = out.h_rounds;
  }
  const long long cold_allocs = alloc_count() - cold_before;

  // Bit-identical rounds per job, strictly fewer allocations per pass.
  EXPECT_EQ(warm_h, cold_h);
  EXPECT_LT(warm_allocs, cold_allocs)
      << "warm --algo low pass should skip the per-job arena build ("
      << warm_allocs << " vs " << cold_allocs << " allocs over " << kJobs
      << " jobs)";
}

// Recurring dense workload: `count` Algo::kAuto jobs over one shared
// planted instance — the full high-degree pipeline, ACD included.
Manifest auto_manifest(int count) {
  Manifest m;
  m.seed = 13;
  JobSpec base;
  base.gen = "planted";
  base.gargs.delta = 150;
  base.gargs.cliques = 4;
  base.gargs.ext = 4;
  base.gargs.anti = 2;
  base.algo = Algo::kAuto;
  base.threads = 1;
  base.oracle = true;
  base.eps = 0.2;
  for (int i = 0; i < count; ++i) {
    JobSpec j = base;
    j.index = i;
    j.key = instance_key(j);
    m.jobs.push_back(std::move(j));
  }
  finalize_job_seeds(m);
  return m;
}

TEST(SvcReuse, AutoJobsReuseTheAcdAndDenseScratch) {
  // The high-degree pipeline's working set — AcdResult members, the ACD
  // CSR/BFS scratch, DenseInfo, palettes, and every phase-orchestration
  // buffer — lives in grow-only State storage. Once warm, a full auto job
  // must stay within the same small allocation budget the serving bench
  // gates on (bench_serving / check_regression.py), and reuse must not
  // change a single output bit versus cold slots.
  constexpr int kJobs = 4;
  constexpr long long kBudgetPerJob = 64;
  const auto m = auto_manifest(kJobs);
  const auto inst = build_instance(m.jobs[0]);
  ASSERT_TRUE(inst.error.empty()) << inst.error;

  JobSlot warm;
  JobResult out;
  std::vector<std::int64_t> warm_h(kJobs);
  for (int pass = 0; pass < 2; ++pass) {  // warm every high-water buffer
    for (int i = 0; i < kJobs; ++i) {
      warm.run(inst, m.jobs[static_cast<std::size_t>(i)], &out);
      ASSERT_TRUE(out.ok) << out.error;
    }
  }
  const long long warm_before = alloc_count();
  for (int i = 0; i < kJobs; ++i) {
    warm.run(inst, m.jobs[static_cast<std::size_t>(i)], &out);
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_EQ(out.uncolored, 0);
    warm_h[static_cast<std::size_t>(i)] = out.h_rounds;
  }
  const long long warm_allocs = alloc_count() - warm_before;

  const long long cold_before = alloc_count();
  std::vector<std::int64_t> cold_h(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    JobSlot cold;  // fresh arena per job
    cold.run(inst, m.jobs[static_cast<std::size_t>(i)], &out);
    ASSERT_TRUE(out.ok) << out.error;
    cold_h[static_cast<std::size_t>(i)] = out.h_rounds;
  }
  const long long cold_allocs = alloc_count() - cold_before;

  EXPECT_EQ(warm_h, cold_h);
  EXPECT_LE(warm_allocs, kBudgetPerJob * kJobs)
      << "warm auto jobs exceeded the steady-state allocation budget ("
      << warm_allocs << " allocs over " << kJobs << " jobs)";
  EXPECT_LT(warm_allocs, cold_allocs / 10)
      << "warm auto pass should skip the arena/ACD build (" << warm_allocs
      << " vs " << cold_allocs << " allocs over " << kJobs << " jobs)";
}

TEST(SvcReuse, ResetStateIsBitIdenticalToFreshState) {
  // The reuse contract behind the zero-alloc loop: a reset State is
  // indistinguishable from a fresh one. Color the same instance with the
  // same seed via a warm slot (after serving different jobs) and via a
  // cold slot; the ledgers and fallback counters must agree exactly.
  const auto m = fast_manifest(3, 1);
  const auto inst = build_instance(m.jobs[0]);

  JobSlot warm;
  JobResult tmp;
  warm.run(inst, m.jobs[1], &tmp);  // unrelated job first
  warm.run(inst, m.jobs[2], &tmp);
  JobResult from_warm;
  warm.run(inst, m.jobs[0], &from_warm);

  JobSlot cold;
  JobResult from_cold;
  cold.run(inst, m.jobs[0], &from_cold);

  EXPECT_TRUE(from_warm.ok);
  EXPECT_EQ(from_warm.h_rounds, from_cold.h_rounds);
  EXPECT_EQ(from_warm.g_rounds, from_cold.g_rounds);
  EXPECT_EQ(from_warm.fallback_count, from_cold.fallback_count);
  EXPECT_EQ(from_warm.num_colors, from_cold.num_colors);
}

TEST(SvcReuse, ClusterGraphBuildsAllocatePerMachineNotPerEdge) {
  // Instance builds allocate per cluster (members, support tree) plus
  // O(1) flat arrays, never per H-edge. On a dense planted H, where 2m is
  // far above n, one container per H-edge would break both bounds.
  Rng rng(5);
  graph::PlantedSpec spec;
  spec.delta = 128;
  const auto h = graph::make_planted_acd(spec, rng).g;
  const long long n = h.n();
  ASSERT_GT(2 * h.m(), 64 * n);

  graph::Graph copy = h;  // the by-value argument, copied outside the count
  long long before = alloc_count();
  const auto single = cluster::ClusterGraph::singleton(std::move(copy));
  EXPECT_LE(alloc_count() - before, 4 * n + 64) << "singleton";
  EXPECT_EQ(single.h().m(), h.m());

  cluster::ExpandSpec star;
  star.shape = cluster::ClusterShape::kStar;
  star.size = 4;
  before = alloc_count();
  const auto expanded = cluster::ClusterGraph::expand(h, star, rng);
  EXPECT_LE(alloc_count() - before, 8LL * expanded.n_machines() + 64)
      << "expand (star)";
  EXPECT_EQ(expanded.h().m(), h.m());
}

}  // namespace
}  // namespace ccg::svc
