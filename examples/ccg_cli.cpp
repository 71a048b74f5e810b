// ccg_cli — command-line driver for the whole library, on the ccg::Solver
// facade.
//
// Builds one instance from a job-line recipe, runs the (Delta+1)-coloring
// pipeline through a Solver session and prints a machine-readable JSON
// result (plus the per-phase ledger on stderr with --verbose).
//
//   ccg_cli --gen gnm --n 4000 --m 24000 --layout star --cluster-size 4
//   ccg_cli --gen caveman --cliques 8 --size 32 --bridges 2 --finisher gk
//   ccg_cli --gen chunglu --n 10000 --avg-deg 20 --gamma 2.5 --seed 7
//   ccg_cli --gen planted --delta 256 --cliques 4 --ext 24 --anti 2
//   ccg_cli --gen grid --w 40 --h 25 --distance 2     (distance-k coloring)
//   ccg_cli --gen gnm --n 2000 --algo fast --eps 0.2  (explicit algo/eps)
//   ccg_cli --dimacs graph.col --mode dist2
//
// Seven flags are the CLI's own: --seed, --distance, --edge-coloring,
// --finisher, --repsets, --verbose and --help. Every other flag belongs to
// the job-line grammar that ccg_batch manifests, ccg_serve requests and
// Problem::recipe share (src/svc/jobspec.hpp), with its defaults and its
// "line 1: ..." errors, and svc::build_instance builds the instance, so a
// recipe builds the same graph on every surface (--gen caveman without
// --cliques builds 4 cliques, --gen cycle without --n 2000 vertices, as
// in a manifest). --edge-coloring is --layout singleton --mode edge;
// --distance k > 1 colors G^k of the singleton recipe graph. --seed s
// sets the graph seed to s (unless --graph-seed overrides it) and the
// coloring seed to s + 1. --repeat is rejected: the CLI runs one job.
// Malformed flags and invalid instances (recipe arguments outside a
// generator's domain included) print usage and exit 2; other build and
// solve failures exit 1 with the error code's name.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "ccg/ccg.hpp"

namespace {

using namespace ccg;

int usage() {
  std::fprintf(
      stderr,
      "usage: ccg_cli (--gen {gnm|gnp|chunglu|caveman|planted|grid|cycle}\n"
      "                | --dimacs file.col) [job-line flags] [own flags]\n"
      "job-line flags (as in ccg_batch manifests):\n"
      "  generator args: --n --m --p --avg-deg --gamma --cliques --size\n"
      "    --bridges --delta --ext --anti --sparse --w --h (--gen caveman\n"
      "    defaults to 4 cliques, --gen cycle to n = 2000)\n"
      "  --layout {singleton|star|path|tree|bridge} --cluster-size k\n"
      "  --links-per-edge l --mode {cluster|edge|dist2} --graph-seed g\n"
      "  --algo {auto|high|low|fast} --eps e  (ACD epsilon, in (0, 1))\n"
      "  --oracle  (exact-oracle ACD, unmeasured bits)\n"
      "  --threads t  (parallel round engine; 0 = hardware, output\n"
      "                identical for every t)\n"
      "  --deadline-ms d\n"
      "own flags:\n"
      "  --seed s  (graph seed s, coloring seed s + 1)\n"
      "  --distance k  (color G^k as a virtual graph)\n"
      "  --edge-coloring  (color the line graph: --mode edge)\n"
      "  --finisher {randomized|linial|gk} --repsets --verbose --help\n");
  return 2;
}

void print_json(const color::Result& res, int n, int machines, int dilation,
                int congestion) {
  std::printf("{\n");
  std::printf("  \"n\": %d,\n  \"machines\": %d,\n", n, machines);
  std::printf("  \"num_colors\": %d,\n", res.num_colors);
  std::printf("  \"h_rounds\": %lld,\n  \"g_rounds\": %lld,\n",
              static_cast<long long>(res.h_rounds),
              static_cast<long long>(res.g_rounds));
  std::printf("  \"dilation\": %d,\n  \"congestion\": %d,\n", dilation,
              congestion);
  std::printf("  \"max_bits_per_link_round\": %d,\n",
              res.max_bits_per_link_round);
  std::printf("  \"num_cliques\": %d,\n  \"num_cabals\": %d,\n",
              res.num_cliques, res.num_cabals);
  std::printf("  \"sparse_count\": %d,\n", res.sparse_count);
  std::printf("  \"fallback_count\": %d,\n  \"retry_count\": %d\n",
              res.fallback_count, res.retry_count);
  std::printf("}\n");
}

color::Params::Finisher parse_finisher(const std::string& val) {
  if (val == "randomized") return color::Params::Finisher::kRandomizedList;
  if (val == "linial") return color::Params::Finisher::kLinial;
  if (val == "gk") return color::Params::Finisher::kGhaffariKuhn;
  svc::parse_fail(1, "unknown finisher '" + val + "' (randomized|linial|gk)");
}

// A failed build or solve: an invalid instance is an input error (usage,
// exit 2); anything else exits 1.
int failed(const char* stage, ErrorCode code, const std::string& message) {
  std::fprintf(stderr, "ccg_cli: %s failed (%s): %s\n", stage,
               error_code_name(code), message.c_str());
  return code == ErrorCode::kInvalidProblem ? usage() : 1;
}

int run(int argc, char** argv) {
  std::uint64_t seed = 1;
  int distance = 1;
  bool edge_coloring = false;
  bool repsets = false;
  bool verbose = false;
  auto finisher = color::Params::Finisher::kRandomizedList;
  std::vector<std::string> toks;  // the job line
  for (int i = 1; i < argc; ++i) {
    const std::string t = argv[i];
    if (t == "--help") return usage();
    if (t == "--edge-coloring") {
      edge_coloring = true;
    } else if (t == "--repsets") {
      repsets = true;
    } else if (t == "--verbose") {
      verbose = true;
    } else if (t == "--seed" || t == "--distance" || t == "--finisher") {
      if (i + 1 >= argc) svc::parse_fail(1, t + " needs a value");
      const std::string val = argv[++i];
      if (t == "--finisher") {
        finisher = parse_finisher(val);
      } else if (t == "--seed") {
        seed = svc::parse_line_u64(1, "seed", val);
      } else {
        distance = svc::parse_line_int(1, "distance", val);
        if (distance < 1 || distance > Problem::kMaxDistance) {
          svc::parse_fail(1, "--distance must be in [1, " +
                                 std::to_string(Problem::kMaxDistance) +
                                 "]");
        }
      }
    } else {
      toks.push_back(t);
    }
  }
  svc::JobLineDefaults def;
  def.graph_seed = seed;
  def.allow_repeat = false;  // the CLI runs exactly one job
  std::vector<svc::JobSpec> jobs;
  svc::parse_job_tokens(toks, 1, def, &jobs);
  if (std::find(toks.begin(), toks.end(), "--gen") == toks.end() &&
      std::find(toks.begin(), toks.end(), "--dimacs") == toks.end()) {
    return usage();
  }
  auto& spec = jobs.front();
  // --edge-coloring is --mode edge on the plain recipe graph; --distance
  // k > 1 colors G^k over it. Both take precedence over --layout and
  // --mode.
  const bool power = !edge_coloring && distance > 1;
  if (edge_coloring || power) spec.layout = "singleton";
  if (edge_coloring) spec.mode = svc::JobMode::kEdge;
  if (power) spec.mode = svc::JobMode::kCluster;
  const auto inst = svc::build_instance(spec);
  if (!inst.error.empty()) return failed("build", inst.error_code, inst.error);
  const graph::Graph& g = inst.vg ? inst.vg->base() : inst.cg.h();
  std::fprintf(stderr, "H: n=%d m=%lld Delta=%d\n", g.n(),
               static_cast<long long>(g.m()), g.max_degree());

  Options opt = svc::job_options(spec);
  opt.seed = seed + 1;
  opt.finisher = finisher;
  opt.use_representative_sets = repsets;

  Solver solver;
  Outcome out;
  if (power) {
    solver.solve(Problem::distance_k(g, distance), opt, &out);
  } else if (inst.vg) {
    solver.solve(Problem::virtual_graph(*inst.vg), opt, &out);
  } else {
    solver.solve(Problem::cluster(inst.cg), opt, &out);
  }
  if (!out.ok()) return failed("solve", out.error.code, out.error.message);
  if (verbose) std::fprintf(stderr, "%s", solver.ledger().report().c_str());
  print_json(out.result, out.n, out.machines, out.result.dilation,
             out.congestion);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const svc::ManifestError& e) {
    std::fprintf(stderr, "ccg_cli: %s\n", e.what());
    return usage();
  }
}
