// Epoch-stamped per-vertex scratch space for synchronized trial rounds.
//
// Every trial primitive (TryColor, SCT, MCT, slack generation, put-aside)
// needs a "candidate table" — a per-round partial map vertex -> value —
// plus small per-round sets of vertices or colors. The seed built these
// from std::unordered_map / std::unordered_set per round; this class
// replaces them with flat arrays stamped by a round epoch, so a round
// costs O(participants) with zero heap allocations in steady state:
// begin_round() is O(1) (bump the epoch), and all per-round containers
// reuse their high-water capacity.
//
// One State owns one TrialScratch. Primitives use it strictly within one
// synchronized round: a later begin_round()/begin_vertex_marks()
// invalidates the respective previous round's data. Per-color sets are
// not epoch-stamped at all any more: they are word-parallel ColorSets
// (color_set.hpp) whose clear() is a handful of word stores.
//
// The parallel round engine (exec/parallel_round.hpp) shares the
// vertex-indexed tables across workers — stamping is per-vertex disjoint,
// so concurrent propose_at() calls on distinct vertices race on nothing —
// while anything append-shaped or vertex-scoped-temporary (sampler output
// buffers, MCT color-set storage, per-vertex blocked-color marks) moves to
// a per-worker WorkerScratch owned by the pool-sized ScratchPool below.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "color/color_set.hpp"
#include "common/assert.hpp"
#include "sketch/fingerprint.hpp"

namespace ccg::color {

// Buffers a single worker owns for the duration of a parallel phase.
struct WorkerScratch {
  std::vector<int> set_buf;   // SetSampler / neighbor-list output buffer
  std::vector<int> tmp;       // short-lived id lists (per-clique S copies)
  std::vector<int> kept;      // shard-local retry / carry-over id lists
  std::vector<int> kept2;     // second carry-over list (split selections)
  // Word-parallel per-vertex color sets, vertex-scoped temporaries that
  // cannot share one array across workers. `blocked`: colors unavailable
  // to the current vertex (MCT verdict marks, fallback_finish used-color
  // set, TryFreeColors taken-in-K set, low-degree list pruning, the
  // colors held around a failed anti-matching pair).
  // `ext_used`: colors held by the current vertex's external neighbors
  // (put-aside sampling / donation probes). `paired`: the colors that
  // some proposer of the current clique shares with one of its
  // anti-neighbors (the colorful matching's verdict gate).
  ColorSet blocked;
  ColorSet ext_used;
  ColorSet paired;
  std::vector<std::pair<int, int>> adopted;  // shard-local (vertex, value)
  // Sort-based grouping buffer ((composite key, id) pairs): the donation
  // scheme's (color, block) groups and the colorful matching's per-clique
  // color buckets.
  std::vector<std::pair<std::int64_t, int>> keyed;
  // Donation transcript: (donor, replacement, put vertex, donated color)
  // ops planned against the frozen coloring, applied at commit.
  struct DonationOp {
    int donor, c_recol, u, c_don;
  };
  std::vector<DonationOp> don_ops;
  // Fingerprint-matching scratch (Algorithm 7) for the clique this worker
  // runs: the flat |K| x k_trials draw matrix plus the per-trial and
  // per-member flag arrays, so one worker runs any number of cliques
  // allocation-free in steady state. `fp_pairs` collects the pairs of the
  // worker's cliques in a batch (fingerprint_matching_batch).
  struct FingerprintScratch {
    std::vector<int> x;         // member x trial geometric draws (flat)
    std::vector<int> argmax;    // per-trial unique-max member, or -1
    std::vector<int> trial_u;   // per-trial surviving u_i, or -1
    std::vector<int> trial_w;   // per-trial sampled anti-neighbor, or -1
    std::vector<char> used_as_max;  // member already a unique max
    std::vector<char> sampled_w;    // member sampled as some w_i
    std::vector<char> w_seen;       // member already kept a trial as w
    sketch::Fingerprint yk;         // clique maximum Y_K (maxima reused)
  } fp;
  std::vector<std::pair<int, int>> fp_pairs;
};

// The pool-owned per-worker scratch set: State sizes it to the round
// engine's worker count once, and phases index it by the worker id their
// shard callback receives. Capacity persists across rounds like every
// other scratch buffer.
class ScratchPool {
 public:
  void ensure_workers(int workers) {
    if (static_cast<int>(ws_.size()) < workers) {
      ws_.resize(static_cast<std::size_t>(workers));
    }
  }
  int workers() const { return static_cast<int>(ws_.size()); }
  WorkerScratch& at(int w) { return ws_[static_cast<std::size_t>(w)]; }

 private:
  std::vector<WorkerScratch> ws_;
};

// Grow-only list-of-lists: reset(groups) clears the first `groups` inner
// lists without releasing any capacity (outer or inner), so phases that
// bucket vertices per clique (inlier splits, SCT candidate sets) reuse one
// instance across jobs allocation-free once warm. view() exposes the live
// prefix as a span for std::span<const std::vector<int>> consumers.
class GroupLists {
 public:
  void reset(int groups) {
    if (static_cast<int>(lists_.size()) < groups) {
      lists_.resize(static_cast<std::size_t>(groups));
    }
    live_ = groups;
    for (int g = 0; g < groups; ++g) {
      lists_[static_cast<std::size_t>(g)].clear();
    }
  }
  int groups() const { return live_; }
  std::vector<int>& at(int g) { return lists_[static_cast<std::size_t>(g)]; }
  const std::vector<int>& at(int g) const {
    return lists_[static_cast<std::size_t>(g)];
  }
  std::span<const std::vector<int>> view() const {
    return {lists_.data(), static_cast<std::size_t>(live_)};
  }

 private:
  std::vector<std::vector<int>> lists_;
  int live_ = 0;
};

// Flat fixed-stride per-vertex color lists: the low-degree path's
// learn/shatter lists-of-lists as one reusable matrix. Row v occupies
// [v * stride, v * stride + len(v)); rows are written by at most one
// worker at a time (per-vertex disjoint), so parallel phases mutate them
// without synchronization. stride is an upper bound on any list length
// (num_colors suffices: lists hold distinct palette colors).
class VertexLists {
 public:
  void rebind(int n, int stride) {
    n_ = n;
    stride_ = stride;
    const auto need =
        static_cast<std::size_t>(n) * static_cast<std::size_t>(stride);
    if (data_.size() < need) data_.resize(need);
    len_.assign(static_cast<std::size_t>(n), 0);
  }
  int size(int v) const { return len_[static_cast<std::size_t>(v)]; }
  std::span<const int> of(int v) const {
    return {data_.data() + row(v),
            static_cast<std::size_t>(len_[static_cast<std::size_t>(v)])};
  }
  void clear(int v) { len_[static_cast<std::size_t>(v)] = 0; }
  void push(int v, int c) {
    auto& len = len_[static_cast<std::size_t>(v)];
    CCG_ASSERT(len < stride_);
    data_[row(v) + static_cast<std::size_t>(len++)] = c;
  }
  int get(int v, int i) const {
    return data_[row(v) + static_cast<std::size_t>(i)];
  }
  // In-place filter of row v, preserving order (pruning determinism rides
  // on it). keep(color) decides survival.
  template <class Keep>
  void filter(int v, Keep&& keep) {
    const auto base = row(v);
    auto& len = len_[static_cast<std::size_t>(v)];
    int out = 0;
    for (int i = 0; i < len; ++i) {
      const int c = data_[base + static_cast<std::size_t>(i)];
      if (keep(c)) data_[base + static_cast<std::size_t>(out++)] = c;
    }
    len = out;
  }

 private:
  std::size_t row(int v) const {
    return static_cast<std::size_t>(v) * static_cast<std::size_t>(stride_);
  }
  std::vector<int> data_;
  std::vector<int> len_;
  int n_ = 0;
  int stride_ = 0;
};

// Phase-orchestration buffers for the pipeline drivers (pipeline.cpp,
// prep_mct.cpp, lowdeg.cpp): the id lists, split buckets and per-vertex
// lists that were function-local vectors, hoisted so the high/low-degree
// paths run allocation-free on a warm State. Buffers are claimed by one
// phase at a time (the drivers are sequential at this level); two
// GroupLists exist because the cabal/outlier phases hold bucketed sets
// while building the SCT candidate sets.
struct PhaseScratch {
  std::vector<int> verts;     // phase input sets (sparse/easy-clique/final)
  std::vector<int> unc;       // uncolored_of outputs
  std::vector<int> ids;       // clique-id lists
  std::vector<int> easy;      // split buckets
  std::vector<int> rest;
  std::vector<int> outliers;
  std::vector<int> sel;       // per-iteration selections (prep_mct)
  std::vector<int> sel2;
  std::vector<int> all;       // final safety-net sweeps
  std::vector<std::pair<int, int>> pairs;  // anti-matching (u, w) batches
  std::vector<std::pair<int, int>> pairs2; // per-cabal relay pair batches
  std::vector<int> fp_cliques;  // cliques of a FingerprintMatching batch
  // inliers per clique / SCT candidate sets / FingerprintMatching top-up
  // participants
  GroupLists groups;
  GroupLists groups2;
  VertexLists lists;          // low-degree learn/shatter color lists
  // Matching / put-aside orchestration (matching.cpp, putaside.cpp):
  // round worklists of the anti-matching, the colorful matching's
  // per-clique participant segments, and the put-aside machinery's id
  // lists and per-position markers. `putsets` outlives steps 3-6 of the
  // cabal phase (the SCT and the donation scheme both read it), so it is
  // distinct from the groups pair above.
  std::vector<int> am_todo, am_cand, am_next;
  std::vector<int> seg;       // colorful-matching segment offsets
  std::vector<char> flags, flags2, flags3;  // per-position markers
  GroupLists putsets;         // put-aside sets P_K
  GroupLists putq;            // donation candidate sets Q_K
  std::vector<int> put_left, put_idx, put_idx2;
};

class TrialScratch {
 public:
  static constexpr int kNone = -1;

  // Grow the vertex-indexed arrays. No-op when already large enough, so
  // calling it at the top of every round is free in steady state.
  void ensure_vertices(int n) {
    const auto sz = static_cast<std::size_t>(n);
    if (epoch_of_.size() < sz) {
      epoch_of_.resize(sz, 0);
      value_.resize(sz, kNone);
      set_begin_.resize(sz, 0);
      set_end_.resize(sz, 0);
      set_home_.resize(sz, 0);
      mark_epoch_of_.resize(sz, 0);
    }
  }
  // Size the per-worker color-set pools (MCT sampling phase). Worker 0
  // always exists, so sequential call sites need no setup.
  void ensure_workers(int workers) {
    if (static_cast<int>(pools_.size()) < workers) {
      pools_.resize(static_cast<std::size_t>(workers));
    }
  }

  // ---- candidate table: per-round partial map vertex -> int ----

  void begin_round() {
    if (++epoch_ == 0) {  // wrapped: stamps from 2^32 rounds ago are stale
      std::fill(epoch_of_.begin(), epoch_of_.end(), 0);
      epoch_ = 1;
    }
    proposers_.clear();
    for (auto& pool : pools_) pool.clear();
  }

  bool active(int v) const {
    return epoch_of_[static_cast<std::size_t>(v)] == epoch_;
  }
  // Insert or overwrite this round's value for v. First activation also
  // clears v's color-set range.
  void propose(int v, int value) {
    const auto i = static_cast<std::size_t>(v);
    if (epoch_of_[i] != epoch_) {
      proposers_.push_back(v);
    }
    propose_at(v, value);
  }
  // Parallel-path activation: identical stamping minus the shared
  // proposers list. Workers own disjoint vertex shards, so concurrent
  // calls on distinct vertices are race-free; commit loops iterate the
  // caller's own S instead of proposers().
  void propose_at(int v, int value) {
    const auto i = static_cast<std::size_t>(v);
    if (epoch_of_[i] != epoch_) {
      epoch_of_[i] = epoch_;
      set_begin_[i] = set_end_[i] = 0;
      set_home_[i] = 0;
    }
    value_[i] = value;
  }
  // This round's value for v, or kNone.
  int candidate(int v) const {
    const auto i = static_cast<std::size_t>(v);
    return epoch_of_[i] == epoch_ ? value_[i] : kNone;
  }
  // Vertices proposed this round, in insertion order.
  const std::vector<int>& proposers() const { return proposers_; }

  // ---- per-vertex color sets (multicolor trials) ----
  //
  // Sets live in per-worker flat pools (worker 0 for sequential callers);
  // build all sets first, then read them (a pool may reallocate while its
  // worker is still appending). The vertex must already be active this
  // round; set_home_ records which pool holds its range.

  void set_begin(int v, int w = 0) {
    CCG_ASSERT(active(v));
    const auto i = static_cast<std::size_t>(v);
    set_home_[i] = w;
    set_begin_[i] =
        static_cast<std::int64_t>(pools_[static_cast<std::size_t>(w)].size());
  }
  void set_push(int c, int w = 0) {
    pools_[static_cast<std::size_t>(w)].push_back(c);
  }
  void set_end(int v, int w = 0) {
    set_end_[static_cast<std::size_t>(v)] =
        static_cast<std::int64_t>(pools_[static_cast<std::size_t>(w)].size());
  }
  std::span<const int> set_of(int v) const {
    const auto i = static_cast<std::size_t>(v);
    if (epoch_of_[i] != epoch_) return {};
    const auto& pool = pools_[static_cast<std::size_t>(set_home_[i])];
    return {pool.data() + set_begin_[i],
            static_cast<std::size_t>(set_end_[i] - set_begin_[i])};
  }

  // ---- vertex marks: per-round set membership, separate epoch ----

  void begin_vertex_marks() {
    if (++mark_epoch_ == 0) {
      std::fill(mark_epoch_of_.begin(), mark_epoch_of_.end(), 0);
      mark_epoch_ = 1;
    }
  }
  void mark_vertex(int v) {
    mark_epoch_of_[static_cast<std::size_t>(v)] = mark_epoch_;
  }
  bool vertex_marked(int v) const {
    return mark_epoch_of_[static_cast<std::size_t>(v)] == mark_epoch_;
  }

  // ---- reusable buffers (capacity persists across rounds) ----

  std::vector<int> tmp_ints;  // short-lived id lists
  std::vector<int> verdicts;  // per-position adopt color / -1 (commit input)
  // fallback_finish worklists (dedicated: the safety net may run while a
  // phase still holds tmp_ints). Reuse makes the fallback — and with it
  // the service's fast serving path — allocation-free in steady state.
  std::vector<int> fb_todo;
  std::vector<int> fb_next;

  // Fingerprint-matching batch state (Algorithm 7, matching.cpp): the
  // vertex -> member index array (grow-only, n entries), shared by the
  // clique tasks of a batch because cliques are vertex-disjoint and
  // anti(u) ⊆ K, so a task writes and reads only its own clique's entries;
  // and the batch's per-clique first stream rounds.
  std::vector<int> fp_index;
  std::vector<std::uint64_t> fp_base;

 private:
  std::uint32_t epoch_ = 0;
  std::uint32_t mark_epoch_ = 0;
  std::vector<std::uint32_t> epoch_of_;
  std::vector<int> value_;
  std::vector<std::int64_t> set_begin_;
  std::vector<std::int64_t> set_end_;
  std::vector<std::int32_t> set_home_;
  std::vector<std::vector<int>> pools_{1, std::vector<int>{}};
  std::vector<std::uint32_t> mark_epoch_of_;
  std::vector<int> proposers_;
};

}  // namespace ccg::color
