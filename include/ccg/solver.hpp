// ccg::Solver — the stable, reusable entry point of the library.
//
// One Solver is a coloring *session*: it owns the arena (a net::Ledger, a
// cluster::Runtime and a color::State that are reset-and-rebound, never
// reconstructed, between calls) and serves any number of heterogeneous
// problems through a single error-returning call:
//
//   ccg::Solver solver;
//   ccg::Options opt;
//   opt.seed = 42;
//   auto out = solver.solve(ccg::Problem::graph(g), opt);
//   if (!out.ok()) { /* out.error.code / out.error.message */ }
//   // out.result.colors, out.result.h_rounds, out.congestion, ...
//
// The facade never throws and never aborts: invalid inputs (bad eps,
// unknown mode, malformed recipe, oversize palette/instance) are validated
// at the boundary and returned as a structured ccg::Error; contract
// violations raised deep inside the pipeline are caught and surfaced as
// ErrorCode::kInternal.
//
// Determinism contract: for a fixed (Problem, Options), solve() produces
// colorings bit-identical to a fresh color::State on a fresh
// cluster::Runtime that runs the same phase-level pipeline
// (color::run_high_degree, lowdeg::run_low_degree or lowdeg::run_auto)
// for every Options::threads value — including across reuse of one
// Solver for unrelated problems in between (pinned by
// tests/test_api.cpp). This is the serving contract of
// svc::JobSlot (src/svc/), the thin adapter over Solver that runs every
// scheduled job.
//
// Allocation contract: with Options::copy_colors = false and a reused
// Outcome (the three-argument solve), warm Algo::kFast calls on
// Problem::cluster instances at or below the session's high-water size
// perform zero heap allocations (pinned by tests/test_svc_reuse.cpp and
// enforced by bench/bench_serving.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_graph.hpp"
#include "cluster/runtime.hpp"
#include "cluster/virtual_graph.hpp"
#include "color/params.hpp"
#include "color/pipeline.hpp"
#include "common/cancel.hpp"
#include "graph/graph.hpp"
#include "net/ledger.hpp"

namespace ccg {

// Which algorithm serves a solve() call.
enum class Algo {
  // Dispatch by Delta between the Theorem 1.2 and Theorem 1.1 pipelines
  // (Delta >= Params::delta_low(n) selects the high-degree path).
  kAuto,
  // Theorem 1.2 pipeline (ACD -> slack -> sparse -> non-cabals -> cabals).
  // Proper (Delta+1)-coloring on any input; the O(log* n) guarantee
  // applies in the high-degree regime.
  kHighDegree,
  // Theorem 1.1 pipeline (degree-reduce -> learn -> shatter -> finish).
  kLowDegree,
  // Baseline randomized list coloring: TryColor rounds + deterministic
  // fallback. The cheap serving mode for small/medium instances; runs
  // entirely on reused session state (zero allocations once warm).
  kFast,
};

const char* algo_name(Algo a);
// Accepts auto | high | low | fast (and "baseline" as an alias of fast).
std::optional<Algo> algo_from_name(const std::string& name);

enum class ErrorCode {
  kOk = 0,
  kInvalidOptions,  // bad eps / threads / Params override
  kInvalidProblem,  // unknown mode, malformed recipe, recipe arguments
                    // outside a generator's domain, empty or oversize
                    // instance, bad distance
  kBuildFailed,     // instance construction failed: DIMACS I/O, a
                    // throw while building a caller-given graph's
                    // singleton, line graph or G^k, or a recipe build
                    // failure that is neither a bad recipe nor a bug
  kInternal,        // contract violation inside the coloring pipeline
  kDeadlineExceeded,  // Options::deadline_ms elapsed mid-run (cooperative:
                      // detected at a phase/round boundary, never a hang)
  kCancelled,         // Solver::request_cancel() arrived mid-run
};

const char* error_code_name(ErrorCode c);

struct Error {
  ErrorCode code = ErrorCode::kOk;
  std::string message;

  bool ok() const { return code == ErrorCode::kOk; }
};

// What to color. A Problem is a cheap value describing the instance; it
// borrows any graph/cluster-graph it is given (the referent must outlive
// the solve() call) and defers recipe/virtual construction to the Solver.
class Problem {
 public:
  enum class Kind {
    kClusterGraph,   // prebuilt cluster graph (borrowed)
    kGraph,          // plain conflict graph, singleton layout (borrowed)
    kRecipe,         // manifest job-line recipe, built inside solve()
    kEdgeColoring,   // line graph of a base graph (Corollary 1.3 family)
    kDistanceK,      // G^k via virtual-graph supports (Appendix A)
    kVirtualGraph,   // prebuilt virtual graph (borrowed)
  };

  // A prebuilt cluster graph: the zero-copy serving path (src/svc/).
  static Problem cluster(const cluster::ClusterGraph& cg) {
    Problem p(Kind::kClusterGraph);
    p.cg_ = &cg;
    return p;
  }
  // A plain finalized conflict graph; solve() wraps it in a singleton
  // layout (H = G, the CONGEST case). Every call pays for the wrap: one
  // copy of the graph (CSR and its two offset arrays) and one cluster per
  // vertex, O(n + m) time; the singleton stores no links. Serving loops
  // that revisit one instance should build the cluster graph once and
  // pass Problem::cluster instead.
  static Problem graph(const graph::Graph& g) {
    Problem p(Kind::kGraph);
    p.g_ = &g;
    return p;
  }
  // A generator/DIMACS recipe in the manifest job-line flag syntax of
  // src/svc/manifest.hpp, e.g. "--gen gnm --n 2000 --m 16000 --layout
  // star --cluster-size 4 --graph-seed 7". Only instance flags matter;
  // execution flags (--algo, --threads, --eps, ...) are ignored here —
  // Options governs execution. svc::build_instance builds it, as for
  // every other recipe front end. Malformed recipes and arguments outside
  // a generator's domain come back as ErrorCode::kInvalidProblem,
  // unreadable DIMACS input as kBuildFailed.
  static Problem recipe(std::string job_flags) {
    Problem p(Kind::kRecipe);
    p.recipe_ = std::move(job_flags);
    return p;
  }
  // Edge coloring: color the line graph of `g` (a proper (Delta_H+1)-
  // coloring of it is a (2 Delta_g - 1)-edge-coloring of g).
  static Problem edge_coloring(const graph::Graph& g) {
    Problem p(Kind::kEdgeColoring);
    p.g_ = &g;
    return p;
  }
  // Distance-k coloring: color G^k as a virtual graph (supports = balls
  // of radius ceil(k/2)). k must be in [1, kMaxDistance].
  static Problem distance_k(const graph::Graph& g, int k) {
    Problem p(Kind::kDistanceK);
    p.g_ = &g;
    p.distance_ = k;
    return p;
  }
  // A prebuilt virtual graph (svc::build_instance builds these once per
  // instance-cache entry, and jobs reuse them).
  static Problem virtual_graph(const cluster::VirtualGraph& vg) {
    Problem p(Kind::kVirtualGraph);
    p.vg_ = &vg;
    return p;
  }

  // Ball radius grows with k; beyond this the copy-machine representation
  // (and the palette of G^k) blows up — rejected as kInvalidProblem.
  static constexpr int kMaxDistance = 12;

  Kind kind() const { return kind_; }

 private:
  explicit Problem(Kind kind) : kind_(kind) {}

  Kind kind_;
  const cluster::ClusterGraph* cg_ = nullptr;
  const graph::Graph* g_ = nullptr;
  const cluster::VirtualGraph* vg_ = nullptr;
  int distance_ = 2;
  std::string recipe_;

  friend class Solver;
};

// How to color it. Subsumes algorithm selection plus the color::Params
// surface the CLIs and the batch service expose; the escape hatch
// `params` hands over the knobs callers vary (color::Params; the
// calibration values no caller varies are constants in color/params.hpp).
struct Options {
  Algo algo = Algo::kAuto;
  // Round-engine workers (color::Params::threads): 1 = inline, 0 =
  // hardware concurrency. Results are bit-identical for every value.
  // Negative values and values above kMaxThreads are kInvalidOptions.
  int threads = 1;
  std::uint64_t seed = 1;
  // ACD epsilon. 0 keeps the library default; anything else must lie in
  // (0, 1) or the call fails with kInvalidOptions.
  double eps = 0.0;
  // Exact-oracle ACD + unmeasured bits (the bench calibration mode).
  bool oracle = false;
  color::Params::Finisher finisher = color::Params::Finisher::kRandomizedList;
  bool use_representative_sets = false;
  // Wall-clock budget for the call in milliseconds (0 = none). Checked
  // cooperatively at phase boundaries and round-engine forks, so a
  // pathological instance costs at most one phase/round past the budget
  // before the call returns kDeadlineExceeded. Applies on top of
  // `params` when both are set (the deadline is a serving concern, not a
  // Params knob). Negative values are kInvalidOptions.
  std::int64_t deadline_ms = 0;
  // Full override: used verbatim when set (the knobs above are ignored,
  // including seed and threads — they live inside Params). Validated at
  // the boundary: out-of-range eps/threads/fingerprint_t/reserved_cap_frac
  // are kInvalidOptions, not deep-pipeline throws.
  std::optional<color::Params> params;
  // Fill Outcome::result.colors / phases. The serving path turns this
  // off and reads the coloring through Solver::colors() to stay
  // allocation-free; leave it on everywhere else.
  bool copy_colors = true;

  static constexpr int kMaxThreads = 4096;
};

// What came back: either a result or a structured error, never a throw.
struct Outcome {
  Error error;
  // Scalar stats are always filled on success; colors/phases only when
  // Options::copy_colors (read Solver::colors() otherwise).
  color::Result result;
  int n = 0;          // vertices of the colored conflict graph H
  int machines = 0;   // machines of the communication network G
  int uncolored = 0;  // non-zero only on properness failures
  // Virtual-graph overhead (Appendix A / Eq. 19): congestion is 1 for
  // plain cluster problems, and g_rounds_with_congestion =
  // result.g_rounds * congestion.
  int congestion = 1;
  std::int64_t g_rounds_with_congestion = 0;

  bool ok() const { return error.ok(); }
  explicit operator bool() const { return ok(); }
};

class Solver {
 public:
  Solver();
  ~Solver();
  // A session owns live cross-pointers (Runtime -> Ledger); moving would
  // invalidate them, so sessions are pinned. Heap-allocate to hand around.
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;
  Solver(Solver&&) = delete;
  Solver& operator=(Solver&&) = delete;

  // One entry point for every algorithm and graph mode. Never throws.
  Outcome solve(const Problem& problem, const Options& options = {});

  // Cooperatively cancel the solve() in flight on another thread: it
  // returns kCancelled at the next phase/round boundary. Each solve()
  // entry rearms the token, so a request only affects the call it lands
  // in. Safe to call from any thread at any time; a no-op when nothing
  // is running.
  void request_cancel() { cancel_.cancel(); }

  // Reusing form: `out` is cleared and refilled, keeping its buffer
  // capacity — with copy_colors = false this is the zero-allocation
  // serving call. Never throws.
  void solve(const Problem& problem, const Options& options, Outcome* out);

  // ---- detail tier ----
  // The coloring of the last solve(), aligned with the vertices of the
  // colored H. Valid until the next solve() call; empty when that solve
  // failed (a failed call may leave a partial coloring of a different
  // instance in the arena — never exposed).
  const std::vector<int>& colors() const;
  // Ledger of the last solve() (per-phase costs, bandwidth).
  const net::Ledger& ledger() const { return ledger_; }
  // For successful edge-coloring solves: the g-edge realized by each
  // H-vertex of the last solve(). Empty for every other problem kind
  // and — like colors() — after a failed solve.
  const std::vector<std::pair<int, int>>& edge_map() const;

 private:
  struct Bound;  // resolved instance: what to color + where to charge

  void solve_impl(const Problem& p, const Options& o, Outcome* out);
  std::optional<Error> bind(const Problem& p, Bound* b);
  void run_fast(color::State& st);

  net::Ledger ledger_{1};
  CancelToken cancel_;  // deadline_ms + request_cancel, rearmed per solve
  std::optional<cluster::Runtime> rt_;
  std::unique_ptr<color::State> st_;
  bool last_ok_ = false;    // gates colors(): no partial colorings leak
  std::vector<int> verts_;  // fast-path worklist (high-water reused)
  // Owned artifacts of build-in-solve problem kinds (graph / recipe /
  // edge / distance-k). Rebuilt per call; the borrowed kinds
  // (cluster / virtual_graph — the serving path) never touch them.
  std::optional<cluster::ClusterGraph> built_cg_;
  std::optional<cluster::VirtualGraph> built_vg_;
  std::vector<std::pair<int, int>> edge_map_;
};

}  // namespace ccg
