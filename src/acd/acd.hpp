// Almost-clique decomposition on cluster graphs (paper, Section 5.4,
// Definitions 4.1/4.2, Proposition 4.3).
//
// ComputeACD partitions V_H into sparse vertices and eps-almost-cliques
// using only fingerprint-based estimates:
//   1. estimate degrees d̂(v); low-degree vertices answer No on all edges;
//   2. for surviving edges, estimate F ≈ |N(u) ∪ N(v)| from the union of
//      neighborhood fingerprints; an edge is a *buddy edge* when
//      F <= (1 + xi) Delta (Lemma 5.8's xi-buddy predicate, with the single
//      slack xi of AcdParams in place of the paper's cascaded xi');
//   3. count per-vertex buddy degrees (fingerprints again); vertices with
//      >= (1 - 2 xi) Delta buddy edges are dense candidates;
//   4. almost-cliques = connected components of the buddy graph restricted
//      to dense candidates ([ACK19, Lemma 4.8]); they have diameter <= 2,
//      so an O(1)-round BFS elects each component's leader (Lemma 3.2).
//
// An exact oracle mode computes the same decomposition from true degrees
// and true joint-neighborhood sizes while charging identical rounds; the
// pipeline uses it at large scale (ablation E18 quantifies the
// difference).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/runtime.hpp"
#include "common/rng.hpp"
#include "sketch/approx_count.hpp"

namespace ccg::exec {
class ParallelRound;
}  // namespace ccg::exec

namespace ccg::acd {

struct AcdParams {
  double eps = 0.05;   // epsilon of the decomposition
  double xi = 0.0;     // buddy-predicate slack; 0 -> defaults to eps
  int t = 96;          // fingerprint width for all estimates
  bool use_fingerprints = true;  // false -> exact oracle mode (same cost)
  bool measure_bits = true;
  // Optional round engine: parallelizes the fingerprint sampling, the
  // oracle's row packing and buddy test (the decomposition's dominant
  // per-edge cost, sharded over the high rows by the work they do) and the
  // buddy-degree count and union-find of steps 3-4 (sharded over rows by
  // slot count). Results are identical with or without it.
  exec::ParallelRound* par = nullptr;
};

struct AcdResult {
  // Almost-clique id per vertex; -1 for sparse vertices.
  std::vector<int> clique_of;
  int num_cliques = 0;
  // Degree estimates d̂(v) from step 1 (exact in oracle mode).
  std::vector<double> degree_est;
  // Members per clique id, ascending. Only entries [0, num_cliques) are
  // meaningful: under reuse the outer vector is grow-only, so stale inner
  // vectors may trail past num_cliques.
  std::vector<std::vector<int>> members;

  // Rebind for a new run, keeping every capacity (outer members included).
  void reset(int n) {
    clique_of.assign(static_cast<std::size_t>(n), -1);
    num_cliques = 0;
    degree_est.assign(static_cast<std::size_t>(n), 0.0);
  }
};

// One 64-bit word of a packed neighborhood: the neighbors w of a vertex
// with w / 64 == word are the set bits w % 64 of mask, and `upto` is the
// running neighbor count in stored order: the vertex's neighbors in this
// word and the words stored before it. A row stores its words that hold
// two or more neighbors first and its one-neighbor words last, so the
// last entry's `upto` is the degree.
struct NeighborWord {
  std::uint64_t mask = 0;
  std::int32_t word = 0;
  std::int32_t upto = 0;
};

// Grow-only working storage for compute_acd/annotate_dense. Owned by the
// caller (color::State keeps one per arena) so back-to-back jobs on warm
// state run the whole decomposition without heap traffic. A "slot" is one
// upper-triangle entry of H's CSR rows, i.e. one edge in h.edges() order
// (graph::Graph::upper_offsets, Graph::edge_slot).
struct AcdScratch {
  std::vector<double> union_est;        // fingerprint |N(u) ∪ N(v)| per slot
  std::vector<char> buddy;              // buddy flag per slot
  std::vector<char> high, candidate;    // per vertex
  std::vector<int> high_rows;           // the high vertices, ascending
  // Per-row prefix sums: packed words (row v owns [word_off[v],
  // word_off[v+1]) of `packed`) and oracle scan work. Slots come from
  // h.upper_offsets().
  std::vector<std::int64_t> word_off, work_off;
  // Oracle mode: N(v) of every high vertex as one NeighborWord per 64-bit
  // word it occupies (none for low vertices), and per worker a dense
  // bitset of ceil(n / 64) words that holds the row being scanned and is
  // all zero between rows.
  std::vector<NeighborWord> packed;
  std::vector<std::vector<std::uint64_t>> row_bits;
  // Steps 3-4, one array of n entries per row part (the rows split by slot
  // count, one part per worker): first the part's buddy-degree count per
  // vertex, then its union-find forest over the candidates (parent per
  // vertex, a root is its set's smallest vertex). The forests merge into
  // part 0's, and `label` holds each root's set size, then its clique id.
  std::vector<std::vector<int>> forests;
  std::vector<int> label;
  // Fingerprint mode: raw per-vertex samples and the aggregated counts
  // (estimates + per-vertex maxima). Both rebind in place, so warm
  // fingerprint decompositions skip the per-vertex buffer rebuilds.
  std::vector<sketch::Fingerprint> raw;
  sketch::CountResult counts;
};

// Stream-based, scratch-backed decomposition: every random draw comes from
// a per-(round, vertex) counter stream of `streams` (bumped internally per
// sampling sub-phase), so results are bit-identical for any worker count
// of params.par. `out` and `scratch` are rebound, never shrunk.
void compute_acd(cluster::Runtime& rt, const AcdParams& params,
                 StreamCtx& streams, AcdResult* out, AcdScratch* scratch);

// Convenience wrapper: fresh result, one-shot scratch, stream space seeded
// from the caller's generator.
AcdResult compute_acd(cluster::Runtime& rt, const AcdParams& params,
                      Rng& rng);

// Definition 4.2 checker: (2i) |K| <= (1+eps')Delta and (2ii) every v in K
// has |N(v) ∩ K| >= (1-eps')|K|. Verified with slack factor eps' =
// slack*eps to accommodate estimate noise (tests use slack values matching
// the constants in Lemma 5.8's guarantee). Returns false with a reason via
// *why if non-null.
bool verify_almost_cliques(const graph::Graph& h,
                           const AcdResult& acd, double eps_prime,
                           std::string* why = nullptr);

// ---- Dense-vertex annotations used by the coloring pipeline ----

struct DenseInfo {
  // ẽ_v: external degree estimate per vertex (0 for sparse).
  std::vector<double> ext_est;
  // exact |K| per clique id (computable exactly by tree aggregation).
  std::vector<int> clique_size;
  // ẽ_K: average external-degree estimate per clique id.
  std::vector<double> avg_ext_est;
  // cabal flag per clique id: ẽ_K < ell.
  std::vector<bool> is_cabal;
  // Neighborhood split of every vertex v of almost-clique K, as ascending
  // CSR lists (row v is [off[v], off[v + 1]), empty for sparse v):
  //   ext(v)  = N(v) \ K   (e_v entries: other cliques and sparse vertices)
  //   anti(v) = K \ N[v]   (a_v entries: the anti-neighbors in K)
  // ext(v) is knowable at v's link machines once clusters share their
  // almost-clique id (Section 5.3). anti(v) is a simulation shortcut: it
  // only speeds up answers the model gets from charged aggregations
  // (clique-palette queries, Lemma 4.8; fingerprint maxima, Algorithm 7).
  // N(v) ∩ K is K minus anti(v) minus v, so with the clique palette the
  // split answers in-clique questions about v in O(e_v + a_v) instead of
  // a deg(v) scan.
  std::vector<std::int64_t> ext_off, anti_off;
  std::vector<int> ext_adj, anti_adj;

  std::span<const int> ext(int v) const {
    const auto i = static_cast<std::size_t>(v);
    return {ext_adj.data() + ext_off[i],
            static_cast<std::size_t>(ext_off[i + 1] - ext_off[i])};
  }
  std::span<const int> anti(int v) const {
    const auto i = static_cast<std::size_t>(v);
    return {anti_adj.data() + anti_off[i],
            static_cast<std::size_t>(anti_off[i + 1] - anti_off[i])};
  }
};

// Rebuilds the ext/anti split of `out` from h and the decomposition (one
// counting pass, a prefix sum, one filling pass; both passes walk the
// members of the cliques and shard the cliques on `par` when given).
// annotate_dense calls it; callers that fill a DenseInfo by hand call it to
// complete one, with `members` consistent with `clique_of`.
void split_neighborhoods(const graph::Graph& h, const AcdResult& acd,
                         exec::ParallelRound* par, DenseInfo* out);

// Computes ẽ_v by fingerprinting with predicate "u outside K_v"
// (Lemma 5.7), aggregates per-clique averages on clique BFS trees, and
// classifies cabals against the threshold ell (paper: Theta(log^1.1 n)).
// Also builds the neighborhood split; in oracle mode ẽ_v = |ext(v)|.
// Stream-based primary form: draws (fingerprint mode only) come from
// per-vertex counter streams, results are worker-count independent, and
// `out` is rebound in place.
// `scratch` (optional) hosts the fingerprint-mode sampling buffers — pass
// the compute_acd scratch so warm annotations stay allocation-free.
void annotate_dense(cluster::Runtime& rt, const AcdResult& acd, double ell,
                    int t, bool use_fingerprints, StreamCtx& streams,
                    exec::ParallelRound* par, DenseInfo* out,
                    AcdScratch* scratch = nullptr);

// Convenience wrapper (fresh DenseInfo, stream space seeded from rng).
DenseInfo annotate_dense(cluster::Runtime& rt, const AcdResult& acd,
                         double ell, int t, bool use_fingerprints,
                         Rng& rng, exec::ParallelRound* par = nullptr);

}  // namespace ccg::acd
