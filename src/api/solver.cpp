#include "ccg/solver.hpp"

#include <cmath>

#include "cluster/validate.hpp"
#include "color/primitives.hpp"
#include "common/failpoint.hpp"
#include "lowdeg/lowdeg.hpp"
#include "lowdeg/virtual_color.hpp"
#include "svc/service.hpp"

namespace ccg {

namespace {

Error make_error(ErrorCode code, std::string message) {
  Error e;
  e.code = code;
  e.message = std::move(message);
  return e;
}

bool eps_in_range(double eps) {
  return std::isfinite(eps) && eps > 0.0 && eps < 1.0;
}

// Boundary validation of the execution knobs: everything that would
// otherwise surface as a CCG_CHECK throw (or a NaN-poisoned threshold)
// from deep inside the pipeline is rejected here as kInvalidOptions.
std::optional<Error> validate_options(const Options& o) {
  const int threads = o.params ? o.params->threads : o.threads;
  if (threads < 0 || threads > Options::kMaxThreads) {
    return make_error(ErrorCode::kInvalidOptions,
                      "threads must be in [0, " +
                          std::to_string(Options::kMaxThreads) +
                          "] (0 = hardware concurrency)");
  }
  if (o.deadline_ms < 0) {
    return make_error(ErrorCode::kInvalidOptions,
                      "deadline_ms must be >= 0 (0 = no deadline)");
  }
  if (!o.params) {
    if (o.eps != 0.0 && !eps_in_range(o.eps)) {
      return make_error(ErrorCode::kInvalidOptions,
                        "eps must lie in (0, 1)");
    }
    return std::nullopt;
  }
  // Full Params override: check the knobs whose bad values detonate far
  // from the call site (palette sizing, sketch widths).
  const color::Params& p = *o.params;
  if (!eps_in_range(p.eps)) {
    return make_error(ErrorCode::kInvalidOptions,
                      "Params::eps must lie in (0, 1)");
  }
  if (p.fingerprint_t < 1 || p.fingerprint_t > (1 << 20)) {
    return make_error(ErrorCode::kInvalidOptions,
                      "Params::fingerprint_t must be in [1, 2^20]");
  }
  if (!std::isfinite(p.reserved_cap_frac) || p.reserved_cap_frac <= 0.0 ||
      p.reserved_cap_frac > 1.0) {
    return make_error(
        ErrorCode::kInvalidOptions,
        "Params::reserved_cap_frac must lie in (0, 1]: the reserved "
        "prefix cannot exceed the (Delta+1) palette");
  }
  return std::nullopt;
}

// Reset every field while keeping heap capacity (colors / phases / error
// message buffers survive), so a reused Outcome makes the warm serving
// call allocation-free.
void clear_outcome(Outcome* out) {
  out->error.code = ErrorCode::kOk;
  out->error.message.clear();
  color::reset_result(&out->result);
  out->n = 0;
  out->machines = 0;
  out->uncolored = 0;
  out->congestion = 1;
  out->g_rounds_with_congestion = 0;
}

}  // namespace

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kAuto:
      return "auto";
    case Algo::kHighDegree:
      return "high";
    case Algo::kLowDegree:
      return "low";
    case Algo::kFast:
      return "fast";
  }
  return "?";
}

std::optional<Algo> algo_from_name(const std::string& name) {
  if (name == "auto") return Algo::kAuto;
  if (name == "high") return Algo::kHighDegree;
  if (name == "low") return Algo::kLowDegree;
  if (name == "fast" || name == "baseline") return Algo::kFast;
  return std::nullopt;
}

const char* error_code_name(ErrorCode c) {
  switch (c) {
    case ErrorCode::kOk:
      return "ok";
    case ErrorCode::kInvalidOptions:
      return "invalid_options";
    case ErrorCode::kInvalidProblem:
      return "invalid_problem";
    case ErrorCode::kBuildFailed:
      return "build_failed";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case ErrorCode::kCancelled:
      return "cancelled";
  }
  return "?";
}

struct Solver::Bound {
  const cluster::ClusterGraph* cg = nullptr;  // what the pipelines color
  const cluster::VirtualGraph* vg = nullptr;  // non-null for virtual kinds
  int bandwidth = 0;
};

Solver::Solver() = default;
Solver::~Solver() = default;

const std::vector<int>& Solver::colors() const {
  static const std::vector<int> kEmpty;
  return (st_ && last_ok_) ? st_->phi.vec() : kEmpty;
}

const std::vector<std::pair<int, int>>& Solver::edge_map() const {
  static const std::vector<std::pair<int, int>> kEmpty;
  return last_ok_ ? edge_map_ : kEmpty;
}

// Randomized list coloring (Algo::kFast): TryColor rounds until a round
// makes no progress (uncolored degrees shrink geometrically), then the
// deterministic fallback finishes the stragglers. Proper unconditionally;
// every step runs on reused scratch, so warm calls are allocation-free.
// ccg-lint: zero-alloc
void Solver::run_fast(color::State& st) {
  st.check_cancel();
  CCG_FAILPOINT_ARG("solver.fast", st.params.seed);
  const auto& h = st.h();
  auto& s = verts_;
  s.clear();
  // ccg-lint: allow(zero-alloc): reused scratch, capacity persists warm
  for (int v = 0; v < h.n(); ++v) s.push_back(v);
  const auto sampler = color::uniform_sampler(st.num_colors(), 0);
  while (!s.empty()) {
    st.check_cancel();
    const int got = color::try_color_round(st, s, sampler, 0.5);
    color::prune_colored(st, &s);
    if (got == 0) break;
  }
  if (!s.empty()) color::fallback_finish(st, s);
}

std::optional<Error> Solver::bind(const Problem& p, const Options& o,
                                  Bound* b) {
  (void)o;
  built_cg_.reset();
  built_vg_.reset();
  switch (p.kind()) {
    case Problem::Kind::kClusterGraph:
      if (p.cg_->h().n() < 1) {
        return make_error(ErrorCode::kInvalidProblem,
                          "empty instance: cluster graph has no vertices");
      }
      b->cg = p.cg_;
      break;
    case Problem::Kind::kGraph:
      if (!p.g_->finalized()) {
        return make_error(ErrorCode::kInvalidProblem,
                          "graph must be finalized");
      }
      if (p.g_->n() < 1) {
        return make_error(ErrorCode::kInvalidProblem,
                          "empty instance: graph has no vertices");
      }
      try {
        built_cg_.emplace(cluster::ClusterGraph::singleton(*p.g_));
      } catch (const std::exception& e) {
        return make_error(ErrorCode::kBuildFailed, e.what());
      }
      b->cg = &*built_cg_;
      break;
    case Problem::Kind::kRecipe: {
      svc::JobSpec spec;
      try {
        spec = svc::parse_job_flags(p.recipe_);
      } catch (const std::exception& e) {
        return make_error(ErrorCode::kInvalidProblem,
                          std::string("recipe: ") + e.what());
      }
      // The one recipe builder (svc::build_instance) also classifies its
      // failures: bad recipes are kInvalidProblem, unreadable DIMACS input
      // kBuildFailed.
      auto inst = svc::build_instance(spec);
      if (!inst.error.empty()) {
        return make_error(inst.error_code, std::move(inst.error));
      }
      if (inst.vg) {
        built_vg_.emplace(std::move(*inst.vg));
        if (spec.mode == svc::JobMode::kEdge) {
          edge_map_ = built_vg_->base().edges();
        }
        b->vg = &*built_vg_;
      } else {
        built_cg_.emplace(std::move(inst.cg));
        b->cg = &*built_cg_;
      }
      break;
    }
    case Problem::Kind::kEdgeColoring:
      if (!p.g_->finalized()) {
        return make_error(ErrorCode::kInvalidProblem,
                          "graph must be finalized");
      }
      if (p.g_->m() < 1) {
        return make_error(ErrorCode::kInvalidProblem,
                          "edge coloring needs at least one edge");
      }
      try {
        built_vg_.emplace(cluster::make_line_graph(*p.g_));
        edge_map_ = built_vg_->base().edges();
      } catch (const std::exception& e) {
        return make_error(ErrorCode::kBuildFailed, e.what());
      }
      b->vg = &*built_vg_;
      break;
    case Problem::Kind::kDistanceK:
      if (!p.g_->finalized()) {
        return make_error(ErrorCode::kInvalidProblem,
                          "graph must be finalized");
      }
      if (p.g_->n() < 1) {
        return make_error(ErrorCode::kInvalidProblem,
                          "empty instance: graph has no vertices");
      }
      if (p.distance_ < 1 || p.distance_ > Problem::kMaxDistance) {
        return make_error(
            ErrorCode::kInvalidProblem,
            "distance must be in [1, " +
                std::to_string(Problem::kMaxDistance) +
                "]: the G^k palette and its copy-machine representation "
                "are oversize beyond that");
      }
      try {
        built_vg_.emplace(
            cluster::VirtualGraph::distance_k(*p.g_, p.distance_));
      } catch (const std::exception& e) {
        return make_error(ErrorCode::kBuildFailed, e.what());
      }
      b->vg = &*built_vg_;
      break;
    case Problem::Kind::kVirtualGraph:
      if (p.vg_->h().n() < 1) {
        return make_error(ErrorCode::kInvalidProblem,
                          "empty instance: virtual graph has no vertices");
      }
      b->vg = p.vg_;
      break;
  }
  if (b->vg) {
    b->cg = &b->vg->representation();
    b->bandwidth = b->vg->default_bandwidth();
  } else {
    b->bandwidth = b->cg->default_bandwidth();
  }
  return std::nullopt;
}

void Solver::solve_impl(const Problem& p, const Options& o, Outcome* out) {
  if (auto err = validate_options(o)) {
    out->error = std::move(*err);
    return;
  }
  // Rearm the cancellation token for this call: a request_cancel() that
  // raced the previous call dies here, and the deadline clock starts
  // before binding so slow instance builds count against the budget too.
  // The scope also hands the token to failpoint delay actions on this
  // thread, so an injected spin cannot outlive the deadline.
  cancel_.reset();
  cancel_.set_deadline_ms(o.deadline_ms);
  fail::ScopedThreadCancel fp_cancel(&cancel_);
  CCG_FAILPOINT_ARG("solver.bind", o.seed);
  Bound b;
  if (auto err = bind(p, o, &b)) {
    out->error = std::move(*err);
    return;
  }
  const auto& h = b.cg->h();

  // Exactly the parameter assembly of the pre-facade call sites (the
  // CLIs, svc::job_params): defaults for this instance size, then the
  // Options knobs — or the caller's full override, verbatim.
  color::Params params =
      o.params ? *o.params : color::Params::defaults_for(h.n(), o.seed);
  if (!o.params) {
    params.threads = o.threads;
    if (o.eps > 0) params.eps = o.eps;
    if (o.oracle) {
      params.use_fingerprint_acd = false;
      params.measure_bits = false;
    }
    params.finisher = o.finisher;
    params.use_representative_sets = o.use_representative_sets;
  }

  // Arena: reset-and-rebind, never reconstruct. A reset State is
  // bit-identical to a fresh one (color::State::reset contract), so this
  // session is indistinguishable from the one-shot free functions.
  ledger_.reset(b.bandwidth);
  if (!rt_) {
    // ccg-lint: allow(zero-alloc): session arena built once, then reused
    rt_.emplace(*b.cg, ledger_);
  } else {
    rt_->rebind(*b.cg, ledger_);
  }
  if (!st_) {
    // ccg-lint: allow(zero-alloc): session arena built once, then reused
    st_ = std::make_unique<color::State>(*rt_, params);
  } else {
    st_->reset(*rt_, params);
  }
  st_->set_cancel(&cancel_);
  out->n = h.n();
  out->machines = b.cg->n_machines();
  out->result.num_colors = rt_->delta() + 1;
  if (b.vg) out->congestion = b.vg->congestion();

  try {
    auto& st = *st_;
    switch (o.algo) {
      case Algo::kAuto:
        if (b.vg) {
          lowdeg::run_virtual(st, *b.vg);
        } else if (rt_->delta() >= params.delta_low(h.n())) {
          color::run_high_degree(st);
        } else {
          lowdeg::run_low_degree(st);
        }
        break;
      case Algo::kHighDegree:
        color::run_high_degree(st);
        break;
      case Algo::kLowDegree:
        lowdeg::run_low_degree(st);
        break;
      case Algo::kFast:
        run_fast(st);
        // The pipelines end in check_proper_total on st.h(), which is h
        // (a failure throws into the catch below); the fast path is
        // checked here so nothing improper ever leaves the facade.
        if (!cluster::is_proper_total(h, st.phi.vec(), st.num_colors(),
                                      st.par.get())) {
          out->uncolored = cluster::count_uncolored(st.phi.vec());
          out->error = make_error(ErrorCode::kInternal,
                                  "coloring is not proper and total");
          return;
        }
        break;
    }
    color::finalize_result_into(st, o.copy_colors, &out->result);
    out->g_rounds_with_congestion =
        out->result.g_rounds * static_cast<std::int64_t>(out->congestion);
  } catch (const CancelledError& e) {
    out->uncolored = cluster::count_uncolored(st_->phi.vec());
    out->error = make_error(e.deadline_exceeded ? ErrorCode::kDeadlineExceeded
                                                : ErrorCode::kCancelled,
                            e.what());
  } catch (const std::exception& e) {
    out->uncolored = cluster::count_uncolored(st_->phi.vec());
    out->error = make_error(ErrorCode::kInternal, e.what());
  }
}

// ccg-lint: catch-boundary
void Solver::solve(const Problem& problem, const Options& options,
                   Outcome* out) {
  clear_outcome(out);
  edge_map_.clear();
  try {
    solve_impl(problem, options, out);
  } catch (const CancelledError& e) {
    // A deadline that expired during binding (before the pipeline's own
    // catch was in place) still surfaces structured.
    out->error = make_error(e.deadline_exceeded ? ErrorCode::kDeadlineExceeded
                                                : ErrorCode::kCancelled,
                            e.what());
  } catch (const std::exception& e) {
    // Belt and braces: boundary validation or binding itself misbehaved.
    out->error = make_error(ErrorCode::kInternal, e.what());
  } catch (...) {
    out->error = make_error(ErrorCode::kInternal, "unknown exception");
  }
  last_ok_ = out->ok();
}

Outcome Solver::solve(const Problem& problem, const Options& options) {
  Outcome out;
  solve(problem, options, &out);
  return out;
}

}  // namespace ccg
