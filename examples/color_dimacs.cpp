// Command-line coloring tool: read a DIMACS instance, color it with the
// cluster-graph pipeline, print statistics and (optionally) the coloring.
//
//   color_dimacs [instance.col] [job-line flags] [--print-colors]
//
// The file is --dimacs instance.col, and every other flag but
// --print-colors belongs to the job-line grammar that ccg_cli, ccg_batch
// manifests and ccg_serve requests share (src/svc/jobspec.hpp): --layout
// {singleton|star|path|tree|bridge}, --cluster-size, --links-per-edge,
// --mode, --graph-seed (seeds the layout), --seed (the coloring seed),
// --algo, --eps, --oracle, --threads, --deadline-ms. Malformed flags exit 2
// with the grammar's "line 1: ..." message. With neither a file nor --gen
// or --dimacs, a built-in demo recipe runs, so the tool works out of the
// box.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ccg/ccg.hpp"
#include "graph/io.hpp"

namespace {

using namespace ccg;

const char* const kDemoRecipe =
    "--gen planted --delta 64 --cliques 2 --ext 8 --anti 2 --sparse 120 "
    "--graph-seed 7";

int usage() {
  std::fprintf(stderr,
               "usage: color_dimacs [instance.col] [job-line flags] "
               "[--print-colors]\n"
               "  job-line flags as in ccg_cli: --layout --cluster-size "
               "--links-per-edge --mode\n"
               "  --graph-seed --seed --algo --eps --oracle --threads "
               "--deadline-ms (and --gen/--dimacs)\n");
  return 2;
}

int run(int argc, char** argv) {
  bool print_colors = false;
  std::vector<std::string> toks;  // the job line
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-colors") {
      print_colors = true;
    } else if (i == 1 && arg.rfind("--", 0) != 0) {
      toks.push_back("--dimacs");
      toks.push_back(arg);
    } else {
      toks.push_back(arg);
    }
  }
  const bool demo =
      std::find(toks.begin(), toks.end(), "--gen") == toks.end() &&
      std::find(toks.begin(), toks.end(), "--dimacs") == toks.end();
  if (demo) {
    std::istringstream recipe(kDemoRecipe);
    std::vector<std::string> with_demo;
    for (std::string t; recipe >> t;) with_demo.push_back(t);
    with_demo.insert(with_demo.end(), toks.begin(), toks.end());
    toks = std::move(with_demo);
  }
  svc::JobLineDefaults def;
  def.allow_repeat = false;  // one instance, one coloring
  std::vector<svc::JobSpec> jobs;
  svc::parse_job_tokens(toks, 1, def, &jobs);
  const auto& spec = jobs.front();
  if (demo) {
    std::printf("no instance given — using the demo recipe %s\n",
                kDemoRecipe);
  }

  const auto inst = svc::build_instance(spec);
  if (!inst.error.empty()) {
    std::fprintf(stderr, "color_dimacs: build failed (%s): %s\n",
                 error_code_name(inst.error_code), inst.error.c_str());
    return inst.error_code == ErrorCode::kInvalidProblem ? usage() : 1;
  }
  const graph::Graph& g = inst.vg ? inst.vg->base() : inst.cg.h();
  const graph::Graph& h = inst.vg ? inst.vg->h() : inst.cg.h();
  std::printf("instance: %d vertices, %lld edges, Delta = %d\n", g.n(),
              static_cast<long long>(g.m()), g.max_degree());

  Options opt = svc::job_options(spec);
  if (spec.explicit_seed) opt.seed = spec.params_seed;
  Solver solver;
  const auto out = inst.vg
                       ? solver.solve(Problem::virtual_graph(*inst.vg), opt)
                       : solver.solve(Problem::cluster(inst.cg), opt);
  if (!out.ok()) {
    std::fprintf(stderr, "color_dimacs: solve failed (%s): %s\n",
                 error_code_name(out.error.code), out.error.message.c_str());
    return 1;
  }
  const auto& result = out.result;
  std::printf("colored with %d colors (Delta+1 = %d)\n", result.num_colors,
              h.max_degree() + 1);
  std::printf("cost: %lld H-rounds, %lld G-rounds (d = %d), max %d "
              "bits/link/round (B = %d)\n",
              static_cast<long long>(result.h_rounds),
              static_cast<long long>(result.g_rounds), result.dilation,
              result.max_bits_per_link_round, solver.ledger().bandwidth());
  std::printf("structure: %d almost-cliques (%d cabals), %d sparse; "
              "fallbacks: %d\n",
              result.num_cliques, result.num_cabals, result.sparse_count,
              result.fallback_count);
  if (print_colors) {
    std::ostringstream os;
    graph::write_coloring(result.colors, os);
    std::fputs(os.str().c_str(), stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const svc::ManifestError& e) {
    std::fprintf(stderr, "color_dimacs: %s\n", e.what());
    return usage();
  }
}
