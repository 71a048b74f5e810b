// Partial-coloring store plus the shared state threaded through pipeline
// phases (Sections 4, 6, 7, 8 of the paper).
#pragma once

#include <vector>

#include <memory>

#include "acd/acd.hpp"
#include "cluster/runtime.hpp"
#include "cluster/validate.hpp"
#include "color/clique_palette.hpp"
#include "color/params.hpp"
#include "color/scratch.hpp"
#include "common/rng.hpp"
#include "exec/parallel_round.hpp"

namespace ccg::color {

using cluster::kUncolored;

// Colors are 0-based: the (Delta+1)-coloring uses {0, ..., Delta}; the
// paper's reserved prefix [r_K] maps to {0, ..., r_K - 1}.
class Coloring {
 public:
  explicit Coloring(int n) : color_(static_cast<std::size_t>(n), kUncolored) {}

  int n() const { return static_cast<int>(color_.size()); }
  int get(int v) const { return color_[static_cast<std::size_t>(v)]; }
  bool colored(int v) const { return get(v) != kUncolored; }

  void set(int v, int c) {
    CCG_CHECK(c >= 0 && !colored(v));
    color_[static_cast<std::size_t>(v)] = c;
  }
  void unset(int v) { color_[static_cast<std::size_t>(v)] = kUncolored; }

  // Drop every assignment and resize to n vertices. Capacity persists, so
  // repeated resets at or below the high-water n are allocation-free.
  void reset(int n) { color_.assign(static_cast<std::size_t>(n), kUncolored); }

  const std::vector<int>& vec() const { return color_; }

  // True iff some neighbor of v in h is colored c. This is information a
  // cluster obtains in one H-round (broadcast c, aggregate OR).
  bool neighbor_uses(const graph::Graph& h, int v, int c) const;

  // Number of uncolored neighbors of v.
  int uncolored_degree(const graph::Graph& h, int v) const;

 private:
  std::vector<int> color_;
};

// Dense-structure context computed by ComputeACD + annotate_dense, shared
// by all coloring phases.
struct DenseContext {
  acd::AcdResult acd;
  acd::DenseInfo info;
  double ell = 0;              // cabal threshold
  std::vector<int> reserved;   // r_K per clique id (colors [0, r_K) reserved)
  int reserved_cap = 0;        // global exclusion prefix (paper: 300 eps Δ)

  // Back to the all-sparse post-construction shape, keeping every
  // capacity: acd.members' inner vectors and the info arrays survive as
  // grow-only storage for the next build_dense_context.
  void reset(int n) {
    acd.reset(n);
    info.ext_est.clear();
    info.clique_size.clear();
    info.avg_ext_est.clear();
    info.is_cabal.clear();
    info.ext_off.clear();
    info.anti_off.clear();
    info.ext_adj.clear();
    info.anti_adj.clear();
    ell = 0;
    reserved.clear();
    reserved_cap = 0;
  }

  int clique_of(int v) const {
    return acd.clique_of[static_cast<std::size_t>(v)];
  }
  bool is_dense(int v) const { return clique_of(v) >= 0; }
  bool in_cabal(int v) const {
    const int k = clique_of(v);
    return k >= 0 && info.is_cabal[static_cast<std::size_t>(k)];
  }
  double ext_est(int v) const {
    return info.ext_est[static_cast<std::size_t>(v)];
  }
  int r_of(int v) const {
    const int k = clique_of(v);
    return k >= 0 ? reserved[static_cast<std::size_t>(k)] : 0;
  }
};

// Everything a phase needs. One State instance per pipeline run.
struct State {
  cluster::Runtime* rt = nullptr;
  Params params;
  Coloring phi;
  DenseContext dc;
  std::vector<CliquePalette> palettes;  // per clique id
  Rng rng;
  TrialScratch scratch;    // per-round trial scratch (see scratch.hpp)
  std::unique_ptr<exec::ParallelRound> par;  // round engine (Params::threads)
  ScratchPool wscratch;    // pool-owned per-worker scratch set
  acd::AcdScratch acd_scratch;  // ComputeACD working storage (grow-only)
  PhaseScratch ph;         // phase-orchestration buffers (pipeline/lowdeg)
  int fallback_count = 0;  // safety-net interventions (should be ~0)
  int retry_count = 0;     // phase-level retries after failed postconditions
  const CancelToken* cancel = nullptr;  // optional deadline/cancel (Solver)

  State(cluster::Runtime& runtime, const Params& p)
      : rt(&runtime),
        params(p),
        phi(runtime.h().n()),
        rng(p.seed),
        par(std::make_unique<exec::ParallelRound>(p.threads)) {
    // A fresh state has no dense structure: everything is sparse until
    // build_dense_context fills dc.
    dc.acd.clique_of.assign(static_cast<std::size_t>(runtime.h().n()), -1);
    scratch.ensure_vertices(runtime.h().n());
    scratch.ensure_workers(par->workers());
    wscratch.ensure_workers(par->workers());
    streams.reseed(p.seed);
  }

  // Arm (or with nullptr disarm) cooperative cancellation for this run:
  // phase boundaries call check_cancel() and the round engine checks at
  // every fork, so an expired token surfaces as a CancelledError within
  // one phase/round. reset() disarms.
  void set_cancel(const CancelToken* token) {
    cancel = token;
    par->set_cancel(token);
  }
  void check_cancel() const { ccg::check_cancel(cancel); }

  // Rearm this state for a fresh run, possibly on a different runtime /
  // instance: the batch service (src/svc/) keeps one State per scheduler
  // worker and resets it between jobs instead of reconstructing it. All
  // scratch keeps its high-water capacity and the round-engine pool is
  // kept whenever the worker count is unchanged, so steady-state resets
  // perform zero heap allocations. Behavior after reset(rt2, p2) is
  // bit-identical to a freshly constructed State(rt2, p2): the trial-round
  // counter restarts at 0 and the RNG is reseeded from p2.seed.
  void reset(cluster::Runtime& runtime, const Params& p);

  // ---- counter-based draw streams for parallelized rounds ----
  //
  // Each synchronized round calls bump_trial_round() once; every
  // participating entity (vertex in TryColor/SlackGeneration/MCT/
  // matching/put-aside, clique in SCT, pair in the anti-matching, trial
  // in the fingerprint matching) then draws exclusively from its private
  // trial_rng stream. A phase where the same entity draws in two
  // sub-phases (e.g. put-aside activation then donor sampling) bumps the
  // round between them, so the sub-phase streams stay independent.
  // Derivation is a pure function of (seed, round, entity), so workers
  // can evaluate shards in any order — or no threads at all — and produce
  // the same bits.
  // trial_rng(e) == stream_rng(params.seed, round, e) — StreamCtx caches
  // the (seed, round)-dependent key prefix, so the per-entity path pays
  // one mix64 plus the generator seeding. The same StreamCtx also feeds
  // ComputeACD/annotate_dense (they bump it per sampling sub-phase), so
  // the whole pipeline's draw schedule is one shared round counter.
  void bump_trial_round() { streams.bump(); }
  Rng trial_rng(std::uint64_t entity) const {
    return streams.rng_for(entity);
  }

  StreamCtx streams;  // counter-based (seed, round, entity) draw streams

  const graph::Graph& h() const { return rt->h(); }
  int delta() const { return rt->delta(); }
  int num_colors() const { return rt->delta() + 1; }

  // Assign a color, keeping the clique palette of v's almost-clique (if
  // any) in sync.
  void assign(int v, int c);
  void unassign(int v);

  // Initialize palettes after dc is filled.
  void init_palettes();

  // x_v = |K| - (Delta+1) + ẽ_v, the anti-degree proxy (Eq. 3).
  double x_proxy(int v) const;

  // Members of clique k that are uncolored.
  std::vector<int> uncolored_members(int k) const;
  // Appending buffer-out variant (does NOT clear `out`): hot phases
  // accumulate several cliques' members into one reused buffer.
  void append_uncolored_members(int k, std::vector<int>* out) const;
};

// Safety net: color every remaining uncolored vertex by local-minimum
// priority free-color search. Always succeeds for (deg+1)-list-ish
// situations (|L(v)| >= 1 whenever uncolored degree allows), charging
// O(log Delta) bits per round. Increments state.fallback_count per vertex
// colored this way. Returns the number of vertices it colored.
// Deterministic (no randomness); rounds run as verdict (parallel shards)
// -> commit (sequential), bit-identical for every Params::threads value.
// Claims the vertex marks and fb_todo/fb_next worklists of st.scratch for
// its whole run; zero heap allocations in steady state.
int fallback_finish(State& st, const std::vector<int>& vertices);

}  // namespace ccg::color
