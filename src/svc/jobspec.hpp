// One job-line recipe: the shared parsing layer under every job surface.
//
// A "job line" is the flag syntax `--gen gnm --n 2000 --layout star ...`
// describing one coloring job (instance recipe + execution knobs). Four
// front ends consume it and must agree on grammar, defaults, validation
// ranges and the "line N: ..." error model:
//
//   * batch manifests (svc/manifest.hpp): `job <flags...>` lines,
//   * the serving protocol (server/protocol.hpp): `job <id> <flags...>`
//     requests streamed over a socket or stdin,
//   * the facade's Problem::recipe (ccg::Solver),
//   * examples/ccg_cli, whose command line is one job line plus the
//     CLI's own flags.
//
// This header owns the JobSpec type and the one tokenized parser
// (parse_job_tokens) all of them call; a malformed line fails the same
// way (ManifestError, exit 2 in the CLIs) no matter which surface it
// arrived on. All four build the instance with svc::build_instance
// (service.hpp) on top of build_job_graph below, so one recipe is one
// instance everywhere. See manifest.hpp for the flag reference.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ccg/solver.hpp"
#include "cluster/cluster_graph.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace ccg::svc {

// Which algorithm serves the job: the facade's selector, verbatim
// (auto | high | low | fast — see ccg::Algo in ccg/solver.hpp). Every
// value runs on reused slot state through ccg::Solver; kFast jobs are
// zero heap allocations per job after warmup.
using Algo = ccg::Algo;

// Which graph mode the job's instance uses. Virtual modes build the
// instance once in the instance cache (shared by repeats) and run on its
// copy-machine representation, with the congestion overhead reported.
enum class JobMode {
  kCluster,  // the recipe graph itself (plus an optional cluster layout)
  kEdge,     // edge coloring: the line graph as a virtual graph (c = 1)
  kDist2,    // distance-2 coloring: H = G^2 via 1-hop supports (c = 2)
};

const char* mode_name(JobMode m);

// Generator arguments: the one default table of every front end. The
// parser checks only each flag's sign or range; a generator's own
// contract (gnm's edge count, Chung-Lu's gamma > 2, ...) stays the one
// statement of its domain, and build_job_graph reports a recipe outside
// it as a ManifestError.
struct GenArgs {
  int n = 2000;            // gnm / gnp / chunglu / cycle
  std::int64_t m = -1;     // gnm; -1 -> 8n
  double p = 0.01;         // gnp
  double avg_deg = 16.0;   // chunglu
  double gamma = 2.5;      // chunglu
  int cliques = 4;         // caveman / planted
  int size = 24;           // caveman
  int bridges = 2;         // caveman
  int delta = 128;         // planted
  int ext = 12;            // planted
  int anti = 2;            // planted
  int sparse = 0;          // planted
  int w = 30;              // grid
  int h = 30;              // grid
};

// One expanded job.
struct JobSpec {
  int index = 0;     // submission order; keys the per-job seed stream
  std::string key;   // canonical instance identity (cache key)

  // Instance recipe. `dimacs` non-empty selects DIMACS input; otherwise
  // `gen` names a generator.
  std::string gen = "gnm";
  std::string dimacs;
  GenArgs gargs;
  // Virtual-graph modes require the singleton layout (the virtual
  // encoding defines its own network); the parser enforces this.
  JobMode mode = JobMode::kCluster;
  std::string layout = "singleton";
  int cluster_size = 4;
  int links_per_edge = 1;
  std::uint64_t graph_seed = 1;

  // Execution.
  Algo algo = Algo::kAuto;
  int threads = 1;                 // intra-job Params::threads
  std::uint64_t params_seed = 0;   // filled by the owning surface
  bool explicit_seed = false;      // --seed pinned params_seed
  double eps = -1.0;               // <0: keep Params default
  bool oracle = false;             // exact-oracle ACD + unmeasured bits
  // Per-job wall-clock budget (Options::deadline_ms). 0 = none; a
  // negative value means "unset" so the serving surface's default can
  // fill it without clobbering an explicit 0.
  std::int64_t deadline_ms = -1;
};

// Parse errors carry "line N: ..." messages. Shared by the job-line
// parser, the manifest directives and the serving protocol — one error
// model end to end.
class ManifestError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Raise the shared "line N: ..." parse error.
[[noreturn]] void parse_fail(int lineno, const std::string& what);

// Strict number parsing with the shared error model (rejects trailing
// junk, out-of-range, empty). Exposed so every directive parser built on
// job lines validates identically.
std::int64_t parse_line_i64(int lineno, const std::string& flag,
                            const std::string& val);
int parse_line_int(int lineno, const std::string& flag,
                   const std::string& val);
std::uint64_t parse_line_u64(int lineno, const std::string& flag,
                             const std::string& val);
double parse_line_real(int lineno, const std::string& flag,
                       const std::string& val);

// Context a job line inherits from its surface: manifest `threads` /
// `repeat` directives and the current graph seed. allow_repeat gates the
// --repeat flag — a serving request names exactly one job, so the
// protocol parser rejects it at parse time.
struct JobLineDefaults {
  int threads = 1;
  int repeat = 1;
  std::uint64_t graph_seed = 1;
  bool allow_repeat = true;
};

// THE job-line parser: tokens after the `job` head become `repeat`
// expanded specs appended to *out. Each spec gets index = out position,
// its canonical key, and — when --seed pinned it — an explicit seed
// stepped by the repeat ordinal. Derived (non-explicit) seeds are the
// owning surface's job: manifests use derive_job_seed, the server uses
// derive_serve_seed. Throws ManifestError ("line N: ...") on malformed
// or out-of-range input.
void parse_job_tokens(const std::vector<std::string>& toks, int lineno,
                      const JobLineDefaults& def, std::vector<JobSpec>* out);

// Parse one job-line flag string ("--gen gnm --n 2000 --layout star")
// into a single JobSpec (no repeat expansion; index and params_seed are
// left at their defaults). Backs ccg::Problem::recipe. Throws
// ManifestError on malformed or out-of-range input.
JobSpec parse_job_flags(const std::string& flags);

// Canonical instance key of a job's recipe (jobs sharing a key share one
// prepared instance — within a batch, and across clients in the server's
// cross-job cache). The parser fills JobSpec::key with this.
std::string instance_key(const JobSpec& job);

// Layout-name helpers, the single source of truth for the job-line
// parser, the instance builder, and the CLIs. layout_shape returns the
// cluster-expansion shape, or nullopt for "singleton" (no expansion) and
// for unknown names — use known_layout_name to tell those apart.
bool known_layout_name(const std::string& layout);
std::optional<cluster::ClusterShape> layout_shape(const std::string& layout);

// Build the job's conflict graph from its recipe. `rng` must be seeded
// with the job's graph_seed; the service reuses it afterwards for cluster
// expansion so the full instance is a function of (recipe, graph_seed).
// A generator's contract failure on the recipe's arguments throws
// ManifestError ("recipe outside the generator's domain: ..."); DIMACS
// input fails with graph::IoError.
graph::Graph build_job_graph(const JobSpec& job, Rng& rng);

}  // namespace ccg::svc
