// Job execution with reusable per-job state: the unit every scheduler
// runs.
//
// A job is a JobSpec (manifest.hpp / jobspec.hpp) run on a prepared
// Instance (build_instance) by a JobSlot. Scheduling lives in one place,
// server::Scheduler (src/server/): `ccg_serve` feeds it streamed
// requests, and `ccg_batch` submits a manifest's jobs to an in-process
// server::Server (submit_manifest_job in server/server.hpp).
//
// Each scheduler worker owns one JobSlot: a thin adapter over
// ccg::Solver, the library's reusable session object (include/ccg/
// solver.hpp). The Solver holds the arena — a Ledger, a Runtime and a
// color::State that are *reset*, not reconstructed, between jobs — so
// the schedulers and every other consumer (the CLIs, the benches,
// external callers) share exactly one serving code path. Scratch keeps
// its high-water capacity across job boundaries: once a slot is warm,
// Algo::kFast jobs execute with zero heap allocations (pinned by
// tests/test_svc_reuse.cpp; pipeline algos still allocate inside the
// phases — tracked as the auto/low steady allocs/job in bench_serving).
//
// Determinism contract: every job's coloring seed is a pure function of
// the job's identity — (manifest seed, job index) for manifests, see
// manifest.hpp — and instances are immutable once built, so a job's
// result never depends on which worker runs it, when, or next to what.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ccg/solver.hpp"
#include "cluster/cluster_graph.hpp"
#include "cluster/virtual_graph.hpp"
#include "common/json.hpp"
#include "svc/manifest.hpp"

namespace ccg::svc {

// A prepared instance, built once per distinct JobSpec::key and shared
// read-only by every job referencing it. A failed build (bad DIMACS path,
// recipe arguments outside a generator's domain) is recorded instead of
// thrown: the jobs on it fail individually and every other job proceeds.
// Virtual-graph modes (JobMode::kEdge / kDist2) build their encoding here
// too, so repeats share one line graph / G^2 representation.
struct Instance {
  std::string key;
  cluster::ClusterGraph cg;                // JobMode::kCluster
  std::optional<cluster::VirtualGraph> vg;  // virtual modes
  std::string error;  // non-empty: build failed with this message
  // Structured classification of a failed build, so reports distinguish
  // bad input (kInvalidProblem: malformed recipe, arguments outside a
  // generator's domain or an empty instance; kBuildFailed: unreadable or
  // malformed DIMACS) from library bugs (kInternal).
  ErrorCode error_code = ErrorCode::kOk;
};

// Plain-data result of one job. No owned containers on the success path,
// so filling it never allocates.
struct JobResult {
  bool ok = false;
  int n = 0;
  int delta = 0;
  int num_colors = 0;
  int uncolored = 0;
  std::int64_t h_rounds = 0;
  std::int64_t g_rounds = 0;
  int max_bits_per_link_round = 0;
  int fallback_count = 0;
  int retry_count = 0;
  int num_cliques = 0;
  int num_cabals = 0;
  int congestion = 1;  // > 1 only for virtual-graph modes
  double wall_ns = 0;  // timing; excluded from deterministic reports
                       // (summed over attempts when the job retried)
  std::string error;   // failure path only; on a degraded job it keeps
                       // the last pre-degradation failure message
  // Structured error classification. kOk when a solver attempt succeeded
  // (retried or not); the last attempt's failure code when the job failed
  // or was served degraded.
  ErrorCode code = ErrorCode::kOk;
  // Solver attempts executed (1 = no retries; 0 = the instance build
  // already failed so the solver never ran).
  int attempts = 0;
  // Retries exhausted and the degradation fallback (sequential greedy
  // coloring, a valid (Delta+1)-coloring) served the job: ok is true but
  // round/bit stats are absent (the greedy path is not a round-model
  // execution).
  bool degraded = false;
};

// How JobSlot::run treats a failed job. Defaults reproduce
// the policy-free behavior: one attempt, no degradation.
struct RunPolicy {
  // Seeds retry attempts via derive_retry_seed(manifest_seed, job index,
  // attempt) — the whole retry trajectory is scheduler-independent.
  std::uint64_t manifest_seed = 0;
  // Extra attempts after the first for *internal* failures (kInternal /
  // kDeadlineExceeded / kCancelled). Input errors (kInvalidOptions /
  // kInvalidProblem / kBuildFailed) never retry: the same bytes would
  // fail the same way.
  int max_retries = 0;
  // Retries exhausted: serve a valid (Delta+1)-coloring from the
  // sequential greedy baseline and flag the result `degraded` instead of
  // failing the job.
  bool degrade = false;
  // Default per-attempt deadline for jobs that do not set their own
  // JobSpec::deadline_ms (0 = none).
  std::int64_t deadline_ms = 0;
};

// The arena one scheduler worker owns: a ccg::Solver session plus a
// reused Outcome. Public so callers with their own scheduling (tests,
// the reuse checks) can drive slots directly; run() is exactly what
// server::Scheduler executes per job.
//
// Quarantine guarantee: an attempt that dies *mid-run* (kInternal /
// kDeadlineExceeded / kCancelled) may leave the session arena in an
// arbitrary state, so the slot discards the whole Solver and cold-builds
// a fresh one before anything else runs on it — the next job (or retry)
// is bit-identical to one served by a brand-new slot (pinned by
// tests/test_failure_injection.cpp). Boundary failures (invalid options /
// problem, failed builds) never enter the pipeline and do not quarantine.
//
// Ownership discipline (why JobSlot carries no mutex and no capability
// annotations): a slot is single-owner by construction. Each scheduler
// worker (Scheduler::execute) indexes its own slots_[w], and no slot is
// ever shared between workers; the scheduler's dispatch handoff provides
// the happens-before edge when a worker thread is (re)started. Drivers
// that call run() directly inherit the same contract: one thread per
// slot at a time. tools/ccg_lint.py R2 additionally pins the warm
// execute path allocation-free (see the zero-alloc markers below).
class JobSlot {
 public:
  // Execute `job` on `inst` through the slot's Solver session: one
  // attempt, no retries (RunPolicy{} semantics). Boundary and pipeline
  // failures come back as out->error / out->code (the facade never
  // throws). Allocation-free in steady state for Algo::kFast jobs whose
  // instance sizes stay at or below the session's high-water marks.
  void run(const Instance& inst, const JobSpec& job, JobResult* out);

  // Policy form: bounded deterministic retries, then optional graceful
  // degradation (see RunPolicy).
  void run(const Instance& inst, const JobSpec& job, const RunPolicy& policy,
           JobResult* out);

  // The session, for callers that read the coloring of the last run
  // directly (Solver::colors()). Degraded results do NOT live here — the
  // greedy coloring bypasses the session.
  const Solver& solver() const { return *solver_; }

 private:
  void run_attempt(const Instance& inst, const JobSpec& job,
                   std::uint64_t seed, std::int64_t deadline_ms,
                   JobResult* out);
  void degrade(const Instance& inst, JobResult* out);

  // unique_ptr rather than a member: Solver sessions are pinned
  // (non-movable), and quarantining swaps the whole session out.
  std::unique_ptr<Solver> solver_ = std::make_unique<Solver>();
  Outcome outcome_;  // reused across jobs (buffer capacity persists)
  std::vector<int> degrade_colors_;  // scratch for the greedy fallback
};

// The job line's execution flags as ccg::Options: --algo, --threads,
// --oracle, and --eps and --deadline-ms when the line sets them. Seed,
// finisher and copy_colors keep their defaults: each surface (JobSlot,
// ccg_cli) sets its own.
Options job_options(const JobSpec& job);

// Build one instance from a job recipe. Failures land in
// Instance::error / error_code rather than throwing. This is the one
// recipe builder: the server's cross-job instance cache
// (src/server/cache.hpp), Problem::recipe, ccg_cli and every caller that
// runs a JobSlot directly build through it.
Instance build_instance(const JobSpec& job);

// JSON row body of one job: every per-job field after the leading `id`
// the server's report writes. Must stay inside an open object.
void job_result_json(JsonWriter& j, const JobSpec& js, const JobResult& jr,
                     bool include_timing);

}  // namespace ccg::svc
