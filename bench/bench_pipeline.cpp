// Timed end-to-end pipeline benchmark: the wall-clock companion to
// bench_main_theorem's round counts. Runs the planted high-degree mixture
// sweep (E1's instances) plus the cabal-heavy variant under the timed
// harness (warmup + repetitions) at every thread count of the parallel
// round engine, plus a try_color_round microbenchmark, then writes
// BENCH_pipeline.json so successive PRs have a perf trajectory to regress
// against. Colorings are bit-identical across thread counts (verified
// here per instance), so the sweep measures the same work. Each instance
// row records its H-rounds and an FNV-1a hash of its coloring, which
// `check_regression.py --same-colorings` compares against a reference.
//
// Usage: bench_pipeline [out.json] [baseline.json]
//   out.json       default BENCH_pipeline.json (cwd; run from the repo root)
//   baseline.json  default bench/BENCH_baseline.json; when present, its
//                  total_wall_ns is recorded alongside the fresh total and
//                  the speedup ratio is computed.
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "color/color_set.hpp"
#include "color/primitives.hpp"
#include "util.hpp"

using namespace ccg;

namespace {

const std::vector<int> kThreadCounts = {1, 2, 4, 8};

struct ThreadRow {
  int threads = 0;
  ccg::TimedStats stats;
};

struct InstanceRow {
  std::string name;
  int n = 0;
  int delta = 0;
  std::int64_t h_rounds = 0;
  std::string coloring_fnv1a;  // of the t=1 coloring (coloring_fnv1a())
  std::vector<ThreadRow> by_threads;  // same order as kThreadCounts

  const ccg::TimedStats& at_one_thread() const {
    return by_threads.front().stats;
  }
};

// FNV-1a 64 over the colors in vertex order, each as its four
// little-endian bytes, as 16 hex digits.
std::string coloring_fnv1a(const std::vector<int>& colors) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const int c : colors) {
    const auto u = static_cast<std::uint32_t>(c);
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (u >> shift) & 0xFFu;
      h *= 0x100000001B3ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

InstanceRow run_timed_pipeline(const std::string& name, int n_target,
                               const bench::MixtureSpec& ms,
                               std::uint64_t inst_seed,
                               std::uint64_t param_seed, int warmup,
                               int reps) {
  const auto inst = bench::make_mixture(n_target, ms, inst_seed);
  const auto cg = cluster::ClusterGraph::singleton(inst.planted.g);

  InstanceRow row;
  row.name = name;
  row.n = inst.n;
  std::vector<int> reference_colors;
  for (const int threads : kThreadCounts) {
    auto params = bench::bench_params(inst.n, param_seed);
    params.threads = threads;
    color::Result last;
    ThreadRow tr;
    tr.threads = threads;
    // A fresh Solver per rep, so every rep builds its arena cold.
    tr.stats = ccg::timed(
        [&] {
          last = bench::solve(Problem::cluster(cg), Algo::kHighDegree, params)
                     .result;
        },
        warmup, reps, inst.n);
    cluster::check_proper_total(inst.planted.g, last.colors,
                                last.num_colors);
    if (threads == 1) {
      reference_colors = last.colors;
      row.delta = last.num_colors - 1;
      row.h_rounds = last.h_rounds;
      row.coloring_fnv1a = coloring_fnv1a(last.colors);
    } else if (last.colors != reference_colors) {
      std::fprintf(stderr,
                   "FATAL: %s not bit-identical at threads=%d\n",
                   name.c_str(), threads);
      std::exit(1);
    }
    row.by_threads.push_back(tr);
  }
  return row;
}

ccg::TimedStats run_try_color_micro(int warmup, int reps) {
  Rng rng(6);
  const auto g = graph::gnm(2000, 20000, rng);
  const auto cg = cluster::ClusterGraph::singleton(g);
  net::Ledger ledger(cg.default_bandwidth());
  cluster::Runtime rt(cg, ledger);
  std::vector<int> all(static_cast<std::size_t>(g.n()));
  for (int v = 0; v < g.n(); ++v) all[static_cast<std::size_t>(v)] = v;
  const auto sampler = color::uniform_sampler(g.max_degree() + 1, 0);
  constexpr int kRoundsPerRep = 20;
  return ccg::timed(
      [&] {
        color::State st(rt, color::Params::defaults_for(g.n(), 7));
        for (int i = 0; i < kRoundsPerRep; ++i) {
          color::try_color_round(st, all, sampler, 0.5);
        }
      },
      warmup, reps,
      static_cast<std::int64_t>(g.n()) * kRoundsPerRep);
}

struct MicroRow {
  const char* name;
  ccg::TimedStats stats;
};

// Palette-scan micro pair at the paper regime (Delta ~ 256): the former
// color-by-color first-free query over an epoch-stamp/char mark array vs
// the word-parallel ColorSet complement walk, over 64 occupancy patterns
// whose first free color sweeps the palette (average ~Delta/2, the shape
// late fallback/MCT rounds see). Same query, same answer — the pair is
// the before/after figure check_regression.py gates at >= 4x.
void run_palette_micros(int warmup, int reps, std::vector<MicroRow>* out) {
  const int nc = 257;
  const int kPatterns = 64;
  Rng rng(17);
  std::vector<std::vector<char>> marks(kPatterns);
  std::vector<color::ColorSet> sets(kPatterns);
  std::vector<std::vector<char>> marks_b(kPatterns);
  std::vector<color::ColorSet> sets_b(kPatterns);
  for (int p = 0; p < kPatterns; ++p) {
    const int first_free = (p * 4) % nc;
    marks[p].assign(nc, 0);
    sets[p].rebind(nc);
    for (int c = 0; c < nc; ++c) {
      const bool used = c < first_free || (c > first_free && rng.next_bool(0.7));
      if (used) {
        marks[p][static_cast<std::size_t>(c)] = 1;
        sets[p].add(c);
      }
    }
    // Independent ~50% occupancies for the intersection pair.
    marks_b[p].assign(nc, 0);
    sets_b[p].rebind(nc);
    for (int c = 0; c < nc; ++c) {
      if (rng.next_bool(0.5)) {
        marks_b[p][static_cast<std::size_t>(c)] = 1;
        sets_b[p].add(c);
      }
    }
  }
  constexpr int kIters = 20000;
  const auto ops = static_cast<std::int64_t>(kIters) * kPatterns;
  long long sink = 0;
  out->push_back(
      {"first_free_scan", ccg::timed(
                              [&] {
                                for (int i = 0; i < kIters; ++i) {
                                  for (int p = 0; p < kPatterns; ++p) {
                                    int c = 0;
                                    while (c < nc &&
                                           marks[p][static_cast<std::size_t>(
                                               c)]) {
                                      ++c;
                                    }
                                    sink += c;
                                  }
                                }
                              },
                              warmup, reps, ops)});
  out->push_back({"first_free_colorset",
                  ccg::timed(
                      [&] {
                        for (int i = 0; i < kIters; ++i) {
                          for (int p = 0; p < kPatterns; ++p) {
                            sink += sets[p].first_free();
                          }
                        }
                      },
                      warmup, reps, ops)});
  out->push_back({"palette_intersect_scan",
                  ccg::timed(
                      [&] {
                        for (int i = 0; i < kIters; ++i) {
                          for (int p = 0; p < kPatterns; ++p) {
                            int s = 0;
                            for (int c = 0; c < nc; ++c) {
                              if (marks[p][static_cast<std::size_t>(c)] &&
                                  marks_b[p][static_cast<std::size_t>(c)]) {
                                ++s;
                              }
                            }
                            sink += s;
                          }
                        }
                      },
                      warmup, reps, ops)});
  out->push_back({"palette_intersect_colorset",
                  ccg::timed(
                      [&] {
                        for (int i = 0; i < kIters; ++i) {
                          for (int p = 0; p < kPatterns; ++p) {
                            sink += sets[p].intersect_count(sets_b[p]);
                          }
                        }
                      },
                      warmup, reps, ops)});
  if (sink == 42) std::printf(" ");  // defeat dead-code elimination
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_pipeline.json";
  const std::string baseline_path =
      argc > 2 ? argv[2] : "bench/BENCH_baseline.json";
  const int warmup = 1;
  const int reps = 3;
  const int hw_threads =
      std::max(1u, std::thread::hardware_concurrency());

  bench::header("BENCH / timed pipeline",
                "end-to-end wall-clock on the E1 mixture instances at "
                "threads in {1,2,4,8}; trajectory anchor for perf PRs");
  std::printf("hardware threads: %d\n", hw_threads);
  bench::row({"instance", "n", "Delta", "H-rounds", "t=1 ms", "t=2 ms",
              "t=4 ms", "t=8 ms"});

  std::vector<InstanceRow> rows;
  for (const int n_target : {2000, 4000, 8000, 16000}) {
    bench::MixtureSpec ms;
    ms.delta = 256;
    ms.ext_deg = 24;
    rows.push_back(run_timed_pipeline("mixture_n" + std::to_string(n_target),
                                      n_target, ms, 7777 + n_target, 42,
                                      warmup, reps));
  }
  for (const int n_target : {2000, 4000}) {
    bench::MixtureSpec ms;
    ms.delta = 256;
    ms.ext_deg = 6;
    ms.anti_deg = 2;
    ms.sparse_fraction = 0.0;
    rows.push_back(run_timed_pipeline("cabal_n" + std::to_string(n_target),
                                      n_target, ms, 991 + n_target, 43,
                                      warmup, reps));
  }

  // Totals per thread count: sums over instances of each estimator (min,
  // matching the schema-v1 total, then the quartiles and the mean).
  std::vector<ccg::TimedStats> totals(kThreadCounts.size());
  for (const auto& r : rows) {
    std::vector<std::string> cells = {r.name, bench::fmt(r.n),
                                      bench::fmt(r.delta),
                                      bench::fmt(r.h_rounds)};
    for (std::size_t t = 0; t < kThreadCounts.size(); ++t) {
      const auto& st = r.by_threads[t].stats;
      totals[t].min_ns += st.min_ns;
      totals[t].p25_ns += st.p25_ns;
      totals[t].median_ns += st.median_ns;
      totals[t].p75_ns += st.p75_ns;
      totals[t].mean_ns += st.mean_ns;
      cells.push_back(bench::fmt(st.min_ns / 1e6));
    }
    bench::row(cells);
  }
  const double total_wall_ns = totals.front().min_ns;
  const double total_mean_ns = totals.front().mean_ns;

  const auto micro = run_try_color_micro(warmup, reps);
  bench::row({"try_color_round", "2000", "-", "-",
              bench::fmt(micro.min_ns / 1e6), "-", "-", "-"});
  std::printf("try_color_round: %.2f ns/op\n", micro.ns_per_op());

  std::vector<MicroRow> palette_micros;
  run_palette_micros(warmup, reps, &palette_micros);
  for (const auto& m : palette_micros) {
    std::printf("%s: %.2f ns/op\n", m.name, m.stats.ns_per_op());
  }

  const double baseline_ns =
      ccg::json_number_field(baseline_path, "total_wall_ns");

  ccg::JsonWriter j;
  j.begin_object();
  j.key("bench").value("pipeline");
  j.key("schema_version").value(2);
  j.key("config")
      .begin_object()
      .key("warmup")
      .value(warmup)
      .key("reps")
      .value(reps)
      .key("estimator")
      .value("min")
      .key("hardware_threads")
      .value(hw_threads)
      .key("thread_counts")
      .begin_array();
  for (const int t : kThreadCounts) j.value(t);
  j.end_array().end_object();
  j.key("instances").begin_array();
  for (const auto& r : rows) {
    j.begin_object();
    j.key("name").value(r.name);
    j.key("n").value(r.n);
    j.key("delta").value(r.delta);
    j.key("h_rounds").value(r.h_rounds);
    j.key("coloring_fnv1a").value(r.coloring_fnv1a);
    j.key("wall_ns").value(r.at_one_thread().min_ns);
    j.key("mean_ns").value(r.at_one_thread().mean_ns);
    j.key("max_ns").value(r.at_one_thread().max_ns);
    j.key("ns_per_vertex").value(r.at_one_thread().ns_per_op());
    j.key("by_threads").begin_array();
    for (const auto& tr : r.by_threads) {
      j.begin_object();
      j.key("threads").value(tr.threads);
      j.key("wall_ns").value(tr.stats.min_ns);
      j.key("mean_ns").value(tr.stats.mean_ns);
      j.key("max_ns").value(tr.stats.max_ns);
      j.end_object();
    }
    j.end_array();
    j.end_object();
  }
  j.end_array();
  j.key("micro").begin_array();
  j.begin_object();
  j.key("name").value("try_color_round");
  j.key("ns_per_op").value(micro.ns_per_op());
  j.key("wall_ns").value(micro.min_ns);
  j.end_object();
  for (const auto& m : palette_micros) {
    j.begin_object();
    j.key("name").value(m.name);
    j.key("ns_per_op").value(m.stats.ns_per_op());
    j.key("wall_ns").value(m.stats.min_ns);
    j.end_object();
  }
  j.end_array();
  j.key("by_threads_total").begin_array();
  for (std::size_t t = 0; t < kThreadCounts.size(); ++t) {
    j.begin_object();
    j.key("threads").value(kThreadCounts[t]);
    j.key("total_wall_ns").value(totals[t].min_ns);
    j.key("total_p25_ns").value(totals[t].p25_ns);
    j.key("total_median_ns").value(totals[t].median_ns);
    j.key("total_p75_ns").value(totals[t].p75_ns);
    j.key("total_mean_ns").value(totals[t].mean_ns);
    j.key("speedup_vs_t1").value(total_wall_ns / totals[t].min_ns);
    j.end_object();
  }
  j.end_array();
  j.key("total_wall_ns").value(total_wall_ns);
  j.key("total_mean_ns").value(total_mean_ns);
  if (baseline_ns > 0) {
    j.key("baseline_total_wall_ns").value(baseline_ns);
    j.key("speedup_vs_baseline").value(baseline_ns / total_wall_ns);
  } else {
    j.key("baseline_total_wall_ns").null();
    j.key("speedup_vs_baseline").null();
  }
  j.end_object();

  if (!j.write_file(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nBENCH JSON -> %s (t=1 total %.1f ms", out_path.c_str(),
              total_wall_ns / 1e6);
  for (std::size_t t = 1; t < kThreadCounts.size(); ++t) {
    std::printf(", t=%d %.2fx", kThreadCounts[t],
                total_wall_ns / totals[t].min_ns);
  }
  if (baseline_ns > 0) {
    std::printf("; baseline %.1f ms, speedup %.2fx", baseline_ns / 1e6,
                baseline_ns / total_wall_ns);
  }
  std::printf(")\n");
  return 0;
}
