// dense_oracle: the closed-loop workload. One client, one reused
// ccg::Solver, the next job sent when the previous one returns. Every solve
// uses Algo::kHighDegree, oracle ACD, eps 0.2 and threads 4, on the planted
// Delta=256 mixtures of bench_pipeline: a non-cabal mixture at n~16k and a
// cabal-heavy one at n~4k, sent 1:2.
//
// The traced run re-sends the first jobs of the same sequence. Each is
// solved twice through the Solver, once with nothing recorded and once
// inside a span with its allocations counted, then replayed phase by phase
// on a color::State in run_high_degree's order, at 4 threads and at 1;
// both replays must reproduce the Solver's coloring bit for bit.
// ComputeACD and annotate_dense are then timed standalone with the job's
// parameters, and fingerprint ComputeACD once with and without bit
// accounting.
#include <algorithm>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "ccg/ccg.hpp"
#include "color/slack_generation.hpp"

namespace ccgbench {
namespace {

using ccg::cluster::ClusterGraph;

constexpr int kThreads = 4;
constexpr int kSetupReps = 5;
// The instances are fixed, like bench_pipeline's; --seed picks the job
// stream (every job's Options::seed).
constexpr std::uint64_t kInstanceSeed = 7777;
// Job i runs on instance kPattern[i % 3]: the mixture, then the cabal
// instance twice.
constexpr int kPattern[] = {0, 1, 1};
constexpr int kRoundJobs = 30;  // rounds and bits are taken over these jobs
constexpr int kTraceJobs = 6;   // traced runs replay at least this many jobs
// The timed jobs are cut into windows of kWindowPatterns whole patterns
// (2 mixture and 4 cabal jobs), so a window's p50 is a cabal job and its
// p90 a mixture job. The host this runs on is shared, and its slow spells
// only ever slow a window down, so jobs/s is the third quartile of the
// windows' throughputs and the latencies are the first quartiles of the
// windows' percentiles.
constexpr int kWindowPatterns = 2;
constexpr int kMinWindows = 8;

struct Instance {
  std::string name;
  ClusterGraph cg;
};

// bench_pipeline's planted mixture: dense blocks of degree ~delta plus a
// sparse background.
struct MixtureSpec {
  int n = 0;
  int delta = 256;
  int ext = 24;
  int anti = 2;
  double sparse_fraction = 0.4;
};

ccg::graph::Graph make_mixture(const MixtureSpec& ms, std::uint64_t seed) {
  ccg::Rng rng(seed);
  ccg::graph::PlantedSpec spec;
  spec.delta = ms.delta;
  const int block = ms.delta + 1 - ms.ext + ms.anti;
  spec.num_cliques = std::max(
      1, static_cast<int>((1.0 - ms.sparse_fraction) * ms.n) / block);
  spec.anti_deg = ms.anti;
  spec.external_deg = ms.ext;
  spec.num_sparse = static_cast<int>(ms.sparse_fraction * ms.n);
  spec.sparse_avg_deg = 0.25 * ms.delta;
  spec.external_to_sparse = spec.num_sparse > 0 ? 0.3 : 0.0;
  return ccg::graph::make_planted_acd(spec, rng).g;
}

std::vector<Instance> build_instances() {
  MixtureSpec mixture;
  mixture.n = 16000;
  MixtureSpec cabal;
  cabal.n = 4000;
  cabal.ext = 6;
  cabal.sparse_fraction = 0.0;
  std::vector<Instance> v;
  v.push_back({"mixture_n16000",
               ClusterGraph::singleton(
                   make_mixture(mixture, derive_seed(kInstanceSeed, 11)))});
  v.push_back({"cabal_n4000",
               ClusterGraph::singleton(
                   make_mixture(cabal, derive_seed(kInstanceSeed, 12)))});
  return v;
}

int instance_of(int job) {
  return kPattern[static_cast<std::size_t>(job) % std::size(kPattern)];
}

std::uint64_t job_seed(std::uint64_t seed, int job) {
  return derive_seed(seed, 1000000 + static_cast<std::uint64_t>(job));
}

ccg::Options job_options(std::uint64_t seed) {
  ccg::Options o;
  o.algo = ccg::Algo::kHighDegree;
  o.oracle = true;
  o.eps = 0.2;
  o.threads = kThreads;
  o.seed = seed;
  return o;
}

// Every job must come back ok, with every vertex colored, and properly:
// the coloring is checked here against H independently of the library's
// own check.
bool check_job(const Instance& inst, const ccg::Solver& s,
               const ccg::Outcome& o, std::string* why) {
  if (!o.ok()) {
    *why = inst.name + ": " + ccg::error_code_name(o.error.code) + ": " +
           o.error.message;
    return false;
  }
  if (o.uncolored != 0) {
    *why = inst.name + ": " + std::to_string(o.uncolored) + " uncolored";
    return false;
  }
  if (!ccg::cluster::is_proper_total(inst.cg.h(), s.colors(),
                                     o.result.num_colors)) {
    *why = inst.name + ": coloring is not proper and total";
    return false;
  }
  return true;
}

// The instances plus a warm session: the Solver has solved every instance
// once, so its arena and thread pool are at their high-water marks.
struct Session {
  std::vector<Instance> insts;
  std::unique_ptr<ccg::Solver> solver;
  ccg::Outcome outcome;

  // Solves instance k with job seed `seed`; any failure fails the run.
  bool solve(std::uint64_t seed, int k, std::string* why) {
    const Instance& inst = insts[static_cast<std::size_t>(k)];
    solver->solve(ccg::Problem::cluster(inst.cg), job_options(seed),
                  &outcome);
    return check_job(inst, *solver, outcome, why);
  }
};

double set_up(const Args& a, int reps, Session* s, Result* out) {
  return timed_setup(
      reps,
      [&] {
        s->insts = build_instances();
        s->solver = std::make_unique<ccg::Solver>();
        for (std::size_t k = 0; k < s->insts.size(); ++k) {
          std::string why;
          if (!s->solve(derive_seed(a.seed, 2 + k), static_cast<int>(k),
                        &why)) {
            out->fail("warm-up " + why);
          }
        }
      },
      [&] {
        s->solver.reset();
        s->insts.clear();
      });
}

void closed_loop(const Args& a, Result* out) {
  Session s;
  const double setup_s = set_up(a, kSetupReps, &s, out);
  if (!out->ok()) return;

  std::vector<double> lat;
  double h_sum = 0, g_sum = 0;
  int max_bits = 0;
  const auto start = Clock::now();
  constexpr int kWindowJobs =
      kWindowPatterns * static_cast<int>(std::size(kPattern));
  for (int i = 0;; ++i) {
    if (i >= std::max(kRoundJobs, kMinWindows * kWindowJobs) &&
        i % kWindowJobs == 0 &&
        secs(start, Clock::now()) >= a.seconds) {
      break;
    }
    const auto t0 = Clock::now();
    std::string why;
    const bool good = s.solve(job_seed(a.seed, i), instance_of(i), &why);
    const auto t1 = Clock::now();
    ++out->attempted;
    if (!good) {
      out->fail("job " + std::to_string(i) + " " + why);
      return;
    }
    lat.push_back(msecs(t0, t1));
    if (i < kRoundJobs) {
      const auto& r = s.outcome.result;
      h_sum += static_cast<double>(r.h_rounds);
      g_sum += static_cast<double>(r.g_rounds);
      max_bits = std::max(max_bits, r.max_bits_per_link_round);
    }
  }
  std::vector<double> rate, p50, p90;
  for (auto w = lat.begin(); w != lat.end(); w += kWindowJobs) {
    const std::vector<double> win(w, w + kWindowJobs);
    double busy_ms = 0;
    for (const double x : win) busy_ms += x;
    rate.push_back(static_cast<double>(win.size()) * 1e3 / busy_ms);
    p50.push_back(quantile(win, 0.50));
    p90.push_back(quantile(win, 0.90));
  }
  out->info("jobs", std::to_string(lat.size()));
  out->info("window_jobs_per_s", json_list(rate));
  out->metric("jobs_per_s", quantile(rate, 0.75), "jobs/s");
  out->metric("latency_p50_ms", quantile(p50, 0.25), "ms");
  out->metric("latency_p90_ms", quantile(p90, 0.25), "ms");
  out->metric("h_rounds_mean", h_sum / kRoundJobs, "rounds");
  out->metric("g_rounds_mean", g_sum / kRoundJobs, "rounds");
  out->metric("max_link_bits", max_bits, "bits");
  out->metric("setup_s", setup_s, "s");
}

// ---- traced run ----

// Solver::solve's parameter assembly for Options without a Params
// override (src/api/solver.cpp).
ccg::color::Params job_params(const ccg::Options& o, int n) {
  auto p = ccg::color::Params::defaults_for(n, o.seed);
  p.threads = o.threads;
  if (o.eps > 0) p.eps = o.eps;
  if (o.oracle) {
    p.use_fingerprint_acd = false;
    p.measure_bits = false;
  }
  p.finisher = o.finisher;
  p.use_representative_sets = o.use_representative_sets;
  return p;
}

// A replay arena laid out like the Solver's: ledger, runtime and state
// are rebound between jobs, never rebuilt, so replays run warm too.
struct Arena {
  explicit Arena(int t) : threads(t) {}
  int threads;
  ccg::net::Ledger ledger{1};
  std::optional<ccg::cluster::Runtime> rt;
  std::unique_ptr<ccg::color::State> st;

  ccg::cluster::Runtime& bind(const ClusterGraph& cg) {
    ledger.reset(cg.default_bandwidth());
    if (!rt) {
      rt.emplace(cg, ledger);
    } else {
      rt->rebind(cg, ledger);
    }
    return *rt;
  }
  ccg::color::State& bind(const ClusterGraph& cg, ccg::color::Params p) {
    p.threads = threads;
    auto& r = bind(cg);
    if (!st) {
      st = std::make_unique<ccg::color::State>(r, p);
    } else {
      st->reset(r, p);
    }
    return *st;
  }
};

const char* const kPhases[] = {"acd",       "slack",  "sparse",
                               "noncabals", "cabals", "safety_net"};

// run_high_degree (src/color/pipeline.cpp), one span per phase.
void replay(Arena& ar, const Instance& inst, const ccg::color::Params& p,
            Tracer& tr, int job, const char* root_name) {
  auto& st = ar.bind(inst.cg, p);
  const int root = tr.begin(root_name, job);
  const auto phase = [&](const char* span, const char* ledger_phase,
                         auto&& body) {
    const int id = tr.begin(span, job, root);
    {
      ccg::net::PhaseScope scope(ar.ledger, ledger_phase);
      body();
    }
    tr.end(id);
  };
  phase("color.acd", "1-acd", [&] { ccg::color::build_dense_context(st); });
  phase("color.slack", "2-slack-generation",
        [&] { ccg::color::slack_generation(st); });
  phase("color.sparse", "3-sparse", [&] { ccg::color::coloring_sparse(st); });
  phase("color.noncabals", "4-noncabals",
        [&] { ccg::color::coloring_noncabals(st); });
  phase("color.cabals", "5-cabals", [&] { ccg::color::coloring_cabals(st); });
  const int net = tr.begin("color.safety_net", job, root);
  auto& all = st.ph.all;
  all.resize(static_cast<std::size_t>(st.h().n()));
  for (int v = 0; v < st.h().n(); ++v) all[static_cast<std::size_t>(v)] = v;
  ccg::color::fallback_finish(st, all);
  tr.end(net);
  tr.end(root);
}

// Fingerprint ComputeACD with bit accounting on and off, same streams: the
// difference is what measuring message sizes costs.
void time_bit_accounting(Arena& ar, const Instance& inst,
                         const ccg::color::Params& params, Tracer& tr, int job,
                         ccg::exec::ParallelRound* par,
                         ccg::acd::AcdResult* acd,
                         ccg::acd::AcdScratch* scratch) {
  ccg::acd::AcdParams ap;
  ap.eps = params.eps;
  ap.t = params.fingerprint_t;
  ap.par = par;
  for (const bool bits : {true, false}) {
    ap.measure_bits = bits;
    ccg::StreamCtx streams(params.seed);
    auto& rt = ar.bind(inst.cg);
    const int span =
        tr.begin(bits ? "net.acd.measured" : "net.acd.unmeasured", job);
    ccg::acd::compute_acd(rt, ap, streams, acd, scratch);
    tr.end(span);
  }
}

void traced(const Args& a, Result* out) {
  Session s;
  set_up(a, 1, &s, out);
  if (!out->ok()) return;

  Tracer tr;
  Arena t4(kThreads), t1(1), standalone(kThreads);
  ccg::exec::ParallelRound par(kThreads);
  ccg::acd::AcdResult acd;
  ccg::acd::AcdScratch acd_scratch;
  ccg::acd::DenseInfo info;
  std::vector<double> allocs, message_bits, cliques, cabals, retries;
  double fallbacks = 0, vertices = 0, untraced_ms = 0;
  const auto start = Clock::now();
  int jobs = 0;
  for (int i = 0; i < kTraceJobs || secs(start, Clock::now()) < a.seconds;
       ++i, ++jobs) {
    const int k = instance_of(i);
    const Instance& inst = s.insts[static_cast<std::size_t>(k)];
    const std::uint64_t seed = job_seed(a.seed, i);

    // The job is solved with nothing recorded and again inside a span with
    // its allocations counted, in alternating order so that neither solve
    // always runs second.
    std::string why;
    const auto untraced = [&] {
      const auto t0 = Clock::now();
      const bool good = s.solve(seed, k, &why);
      untraced_ms += msecs(t0, Clock::now());
      return good;
    };
    const auto traced_solve = [&] {
      const int span = tr.begin("api.solve", i);
      const long long a0 = alloc_count();
      const bool good = s.solve(seed, k, &why);
      allocs.push_back(static_cast<double>(alloc_count() - a0));
      tr.end(span);
      return good;
    };
    const bool good = i % 2 == 0 ? untraced() && traced_solve()
                                 : traced_solve() && untraced();
    ++out->attempted;
    if (!good) {
      out->fail("job " + std::to_string(i) + " " + why);
      return;
    }
    const auto& r = s.outcome.result;
    message_bits.push_back(r.max_message_bits);
    fallbacks += r.fallback_count;
    vertices += s.outcome.n;
    cliques.push_back(r.num_cliques);
    cabals.push_back(r.num_cabals);
    retries.push_back(r.retry_count);

    const auto params = job_params(job_options(seed), inst.cg.h().n());
    for (auto* ar : {&t4, &t1}) {
      replay(*ar, inst, params, tr, i, ar == &t4 ? "replay.t4" : "replay.t1");
      if (ar->st->phi.vec() != s.solver->colors() ||
          ar->ledger.h_rounds() != r.h_rounds) {
        out->fail("job " + std::to_string(i) + " on " + inst.name +
                  ": phase replay at threads=" + std::to_string(ar->threads) +
                  " diverges from Solver::solve");
        return;
      }
    }

    // The decomposition layer on its own, with the job's parameters.
    ccg::acd::AcdParams ap;
    ap.eps = params.eps;
    ap.t = params.fingerprint_t;
    ap.use_fingerprints = params.use_fingerprint_acd;
    ap.measure_bits = params.measure_bits;
    ap.par = &par;
    ccg::StreamCtx streams(params.seed);
    auto& rt = standalone.bind(inst.cg);
    int span = tr.begin("acd.compute", i);
    ccg::acd::compute_acd(rt, ap, streams, &acd, &acd_scratch);
    tr.end(span);
    span = tr.begin("acd.annotate", i);
    ccg::acd::annotate_dense(rt, acd, params.ell(inst.cg.h().n()),
                             params.fingerprint_t, params.use_fingerprint_acd,
                             streams, &par, &info, &acd_scratch);
    tr.end(span);
    if (acd.num_cliques != r.num_cliques) {
      out->fail("job " + std::to_string(i) +
                ": standalone compute_acd found " +
                std::to_string(acd.num_cliques) + " cliques, the solve " +
                std::to_string(r.num_cliques));
      return;
    }
  }
  {
    // Oracle jobs never measure bits. Time the sketch layer once, as the
    // default Options run it, on the cabal instance.
    ccg::Options o;
    o.threads = kThreads;
    o.seed = job_seed(a.seed, 0);
    const Instance& inst = s.insts.back();
    time_bit_accounting(standalone, inst, job_params(o, inst.cg.h().n()), tr,
                        jobs, &par, &acd, &acd_scratch);
  }

  const double n = jobs;
  const double solve_ms = tr.total_ms("api.solve");
  double phases_t4 = 0;
  for (const char* ph : kPhases) {
    const std::string span = std::string("color.") + ph;
    const double ms4 = tr.total_ms(span, "replay.t4");
    const double ms1 = tr.total_ms(span, "replay.t1");
    phases_t4 += ms4;
    out->metric(span + "_ms", ms4 / n, "ms");
    out->metric(span + "_ms.t1", ms1 / n, "ms");
    out->metric(std::string("exec.speedup.") + ph, ms1 / ms4, "x");
  }
  out->metric("acd.compute_ms", tr.total_ms("acd.compute") / n, "ms");
  out->metric("acd.annotate_ms", tr.total_ms("acd.annotate") / n, "ms");
  out->metric("net.bit_accounting_ms",
              tr.total_ms("net.acd.measured") -
                  tr.total_ms("net.acd.unmeasured"),
              "ms");
  out->metric("acd.cliques", mean(cliques), "count");
  out->metric("acd.cabals", mean(cabals), "count");
  out->metric("color.retries", mean(retries), "count");
  out->metric("net.max_message_bits", mean(message_bits), "bits");
  out->metric("color.fallback_ratio", fallbacks / vertices, "share");
  out->metric("api.overhead_ms", (solve_ms - phases_t4) / n, "ms");
  // The first traced job is the first on its instance since warm-up, so
  // the median keeps the warm figure.
  out->metric("api.allocs_per_job", median(allocs), "count");
  out->metric("trace.phase_coverage", phases_t4 / solve_ms, "share");
  out->metric("trace.overhead_ratio", solve_ms / untraced_ms, "x");
  out->info("jobs", std::to_string(jobs));
  if (!a.trace_out.empty() && !tr.write(a.trace_out)) {
    out->fail("cannot write " + a.trace_out);
  }
}

}  // namespace

void run_dense_oracle(const Args& a, Result* out) {
  if (a.trace) {
    traced(a, out);
  } else {
    closed_loop(a, out);
  }
}

}  // namespace ccgbench
