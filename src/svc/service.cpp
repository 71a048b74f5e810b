#include "svc/service.hpp"

#include <chrono>

#include "baseline/baselines.hpp"
#include "cluster/validate.hpp"
#include "common/assert.hpp"
#include "common/failpoint.hpp"
#include "common/json.hpp"
#include "graph/io.hpp"

namespace ccg::svc {

namespace {

using clock_type = std::chrono::steady_clock;

double elapsed_ns(clock_type::time_point t0, clock_type::time_point t1) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
          .count());
}

// True for errors raised mid-pipeline: the arena may hold arbitrary
// partial state, so the session must be quarantined before reuse.
bool is_midrun_failure(ErrorCode c) {
  return c == ErrorCode::kInternal || c == ErrorCode::kDeadlineExceeded ||
         c == ErrorCode::kCancelled;
}

}  // namespace

Options job_options(const JobSpec& job) {
  Options opt;
  opt.algo = job.algo;
  opt.threads = job.threads;
  if (job.eps > 0) opt.eps = job.eps;
  opt.oracle = job.oracle;
  if (job.deadline_ms > 0) opt.deadline_ms = job.deadline_ms;
  return opt;
}

// ccg-lint: zero-alloc
void JobSlot::run_attempt(const Instance& inst, const JobSpec& job,
                          std::uint64_t seed, std::int64_t deadline_ms,
                          JobResult* out) {
  // The manifest surface maps 1:1 onto the facade: the JobSpec's
  // execution knobs become ccg::Options (job_options), the prepared
  // instance becomes a borrowed ccg::Problem. copy_colors stays off —
  // properness is checked inside the Solver and the report only needs the
  // scalar stats, so the warm fast path performs zero heap allocations.
  Options opt = job_options(job);
  opt.seed = seed;
  opt.deadline_ms = deadline_ms;
  opt.copy_colors = false;

  // Scheduler-level injection site: a fault here models the job dying
  // outside the Solver (whose facade never throws). Contained to this
  // attempt like any mid-run failure, quarantine included.
  try {
    CCG_FAILPOINT_ARG("svc.job.run", seed);
  } catch (const std::exception& e) {
    ++out->attempts;
    out->ok = false;
    out->error = e.what();
    out->code = ErrorCode::kInternal;
    // ccg-lint: allow(zero-alloc): quarantine after an injected fault
    solver_ = std::make_unique<Solver>();
    return;
  }
  const auto t0 = clock_type::now();
  if (inst.vg) {
    solver_->solve(Problem::virtual_graph(*inst.vg), opt, &outcome_);
  } else {
    solver_->solve(Problem::cluster(inst.cg), opt, &outcome_);
  }
  out->wall_ns += elapsed_ns(t0, clock_type::now());
  ++out->attempts;

  out->n = outcome_.n;
  out->num_colors = outcome_.result.num_colors;
  out->delta = out->num_colors > 0 ? out->num_colors - 1 : 0;
  out->congestion = outcome_.congestion;
  out->ok = outcome_.ok();
  out->uncolored = outcome_.uncolored;
  out->code = outcome_.error.code;
  if (!outcome_.ok()) {
    out->error = outcome_.error.message;
    // Quarantine: whatever broke mid-run may have corrupted the arena.
    // Cold-rebuild the session before it serves anything else, so the
    // next job on this slot is bit-identical to one on a fresh slot.
    // ccg-lint: allow(zero-alloc): quarantine rebuild on the failure path
    if (is_midrun_failure(out->code)) solver_ = std::make_unique<Solver>();
    return;
  }
  out->error.clear();
  out->fallback_count = outcome_.result.fallback_count;
  out->retry_count = outcome_.result.retry_count;
  out->num_cliques = outcome_.result.num_cliques;
  out->num_cabals = outcome_.result.num_cabals;
  out->h_rounds = outcome_.result.h_rounds;
  out->g_rounds = outcome_.result.g_rounds;
  out->max_bits_per_link_round = outcome_.result.max_bits_per_link_round;
}

// ccg-lint: cold-path
void JobSlot::degrade(const Instance& inst, JobResult* out) {
  // Graceful degradation: the sequential greedy baseline always yields a
  // proper (Delta+1)-coloring, deterministically (no RNG), so a degraded
  // report is still byte-identical across scheduler configurations.
  // The last failure's error/code are kept for the report.
  const graph::Graph& h = inst.vg ? inst.vg->h() : inst.cg.h();
  degrade_colors_ = baseline::greedy_coloring(h);
  const int num_colors = h.max_degree() + 1;
  if (!cluster::is_proper_total(h, degrade_colors_, num_colors)) {
    // Cannot happen for a correct baseline; keep the job failed rather
    // than serve an invalid coloring.
    out->error += " (degradation fallback produced an improper coloring)";
    out->code = ErrorCode::kInternal;
    return;
  }
  out->ok = true;
  out->degraded = true;
  out->n = h.n();
  out->num_colors = num_colors;
  out->delta = num_colors - 1;
  out->uncolored = 0;
  out->congestion = inst.vg ? inst.vg->congestion() : 1;
}

void JobSlot::run(const Instance& inst, const JobSpec& job,
                  JobResult* out) {
  run(inst, job, RunPolicy{}, out);
}

void JobSlot::run(const Instance& inst, const JobSpec& job,
                  const RunPolicy& policy, JobResult* out) {
  // Drivers reuse one JobResult across jobs; start from a clean slate so
  // nothing (stale error text, dense-structure counts) leaks between
  // jobs. JobResult owns no containers besides the (empty) error string,
  // so this stays allocation-free.
  *out = JobResult{};
  if (!inst.error.empty()) {
    out->ok = false;
    out->error = inst.error;
    out->code = inst.error_code != ErrorCode::kOk ? inst.error_code
                                                  : ErrorCode::kBuildFailed;
    return;
  }

  const std::int64_t deadline_ms =
      job.deadline_ms >= 0 ? job.deadline_ms : policy.deadline_ms;
  const int max_retries = policy.max_retries > 0 ? policy.max_retries : 0;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    // Attempt 0 runs the job's own seed; retries draw fresh deterministic
    // seeds from (manifest seed, job index, attempt) so a seed-dependent
    // failure (or a seed-matched failpoint) is not replayed verbatim.
    const std::uint64_t seed =
        attempt == 0 ? job.params_seed
                     : derive_retry_seed(policy.manifest_seed, job.index,
                                         attempt);
    run_attempt(inst, job, seed, deadline_ms, out);
    if (out->ok) return;
    // Input errors are permanent: retrying the same bytes cannot help.
    if (!is_midrun_failure(out->code)) return;
  }
  if (policy.degrade) degrade(inst, out);
}

Instance build_instance(const JobSpec& job) {
  Instance inst;
  inst.key = job.key;
  try {
    CCG_FAILPOINT("svc.prepare");
    Rng rng(job.graph_seed);
    auto g = build_job_graph(job, rng);
    if (g.n() < 1) {
      throw ManifestError("empty instance: recipe builds no vertices");
    }
    // parse_manifest rejects virtual modes with a layout, but
    // programmatic Manifest builders bypass the parser — fail loudly
    // instead of silently ignoring the requested expansion.
    if (job.mode != JobMode::kCluster && job.layout != "singleton") {
      throw ManifestError(std::string("mode=") + mode_name(job.mode) +
                          " requires the singleton layout");
    }
    if (job.mode == JobMode::kEdge) {
      if (g.m() < 1) {
        throw ManifestError("mode=edge needs at least one edge");
      }
      inst.vg.emplace(cluster::make_line_graph(g));
    } else if (job.mode == JobMode::kDist2) {
      inst.vg.emplace(cluster::VirtualGraph::distance_k(g, 2));
    } else {
      const auto shape = layout_shape(job.layout);
      if (job.layout == "singleton") {
        inst.cg = cluster::ClusterGraph::singleton(std::move(g));
      } else if (shape) {
        cluster::ExpandSpec spec;
        spec.size = job.cluster_size;
        spec.links_per_edge = job.links_per_edge;
        spec.shape = *shape;
        inst.cg = cluster::ClusterGraph::expand(g, spec, rng);
      } else {
        // parse_manifest validates this, but programmatic Manifest
        // builders (tests, benches) bypass the parser — fail their jobs
        // loudly instead of silently picking some shape.
        throw ManifestError("unknown layout '" + job.layout + "'");
      }
    }
  } catch (const ManifestError& e) {
    // Recipe semantics violated (bad mode/layout combination, arguments
    // outside a generator's domain, empty instance, ...).
    inst.error = e.what();
    inst.error_code = ErrorCode::kInvalidProblem;
  } catch (const graph::IoError& e) {
    // Unreadable or malformed external input (DIMACS).
    inst.error = e.what();
    inst.error_code = ErrorCode::kBuildFailed;
  } catch (const ContractViolation& e) {
    // A library contract tripped past the generators (or an injected
    // fault): a bug, not an input error.
    inst.error = e.what();
    inst.error_code = ErrorCode::kInternal;
  } catch (const std::exception& e) {
    inst.error = e.what();
    inst.error_code = ErrorCode::kBuildFailed;
  }
  return inst;
}

void job_result_json(JsonWriter& j, const JobSpec& js, const JobResult& jr,
                     bool include_timing) {
  j.key("key").value(js.key);
  j.key("algo").value(ccg::algo_name(js.algo));
  j.key("mode").value(mode_name(js.mode));
  j.key("threads").value(js.threads);
  j.key("seed").value(js.params_seed);
  j.key("ok").value(jr.ok);
  j.key("degraded").value(jr.degraded);
  j.key("attempts").value(jr.attempts);
  j.key("error_code").value(ccg::error_code_name(jr.code));
  if (!jr.error.empty()) j.key("error").value(jr.error);
  j.key("n").value(jr.n);
  j.key("delta").value(jr.delta);
  j.key("num_colors").value(jr.num_colors);
  j.key("uncolored").value(jr.uncolored);
  j.key("h_rounds").value(jr.h_rounds);
  j.key("g_rounds").value(jr.g_rounds);
  j.key("max_bits_per_link_round").value(jr.max_bits_per_link_round);
  j.key("congestion").value(jr.congestion);
  j.key("fallback_count").value(jr.fallback_count);
  j.key("retry_count").value(jr.retry_count);
  j.key("num_cliques").value(jr.num_cliques);
  j.key("num_cabals").value(jr.num_cabals);
  if (include_timing) j.key("wall_ns").value(jr.wall_ns);
}

}  // namespace ccg::svc
