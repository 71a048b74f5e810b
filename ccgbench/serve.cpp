// serve_mix: the open-loop serving workload. One generator thread sends
// Poisson arrivals into one in-process server::Server through
// Server::handle_line; the server runs 3 workers (the fourth core is the
// generator's) and every job runs at --threads 1.
//
// The job mix: mostly --algo fast on gnm and caveman graphs, --algo auto on
// sparse gnm (routed to the low-degree pipeline), one star-layout recipe,
// and exact repeats with a pinned --seed that the result cache answers.
//
// Two phases over one job list:
//   steady      arrivals at the fixed rate kRate (a fifth of capacity);
//               each job's latency runs from when it was due to when it
//               completed (k-th due paired with k-th completion, which
//               gives the exact mean and FIFO-equivalent percentiles);
//   saturating  the same jobs on a fresh server with queue_depth of them
//               in flight, sheds resubmitted: jobs/s.
// The two drained no-timing reports must be byte-identical.
//
// Each phase is cut into kWindows windows of consecutive jobs. The host
// this runs on is shared, and its stalls and slow spells only ever slow a
// window down, so the latencies are the first quartiles of the windows'
// percentiles and jobs/s is the third quartile of the windows'
// throughputs. A steady window in which the generator fell behind (p99
// lateness over kMaxLagMs) is invalid and left out; a run with fewer than
// kMinValidWindows valid windows fails.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "ccg/ccg.hpp"
#include "server/server.hpp"

namespace ccgbench {
namespace {

constexpr int kWorkers = 3;
constexpr int kQueueDepth = 256;
// Steady-phase arrivals per second: about a fifth of the 6000-9000 jobs/s
// that 3 workers sustain on this mix (saturating phase, 4-vCPU x86 VM).
// At half of capacity, queueing amplified the host's own speed swings
// (+-20% between minutes) into far larger swings of the latencies.
constexpr double kRate = 1500;
constexpr double kSteadyShare = 2.0 / 3.0;  // of --seconds; the rest saturates
constexpr double kMaxLagMs = 10;  // generator p99 lateness of a valid window
constexpr int kWindows = 32;
constexpr int kMinValidWindows = 8;
constexpr int kSetupReps = 11;

struct Recipe {
  std::string flags;
  double weight;
};

// The instances are fixed (their graph seeds are constants); --seed picks
// the job stream: arrival times, the recipe of each job, and the seed the
// repeated jobs pin.
std::vector<Recipe> recipes(std::uint64_t seed) {
  const auto graph_seed = [](int g) {
    return " --graph-seed " + std::to_string(g);
  };
  const std::string gnm = "--gen gnm --n 2000 --m 16000" + graph_seed(7001);
  return {
      {gnm + " --algo fast", 0.35},
      {"--gen caveman --cliques 12 --size 28 --bridges 3 --algo fast" +
           graph_seed(7002),
       0.20},
      {"--gen gnm --n 2000 --m 6000 --algo auto" + graph_seed(7003), 0.20},
      {"--gen gnm --n 1000 --m 4000 --layout star --cluster-size 3 "
       "--algo auto" +
           graph_seed(7004),
       0.10},
      {gnm + " --algo fast --seed " +
           std::to_string(derive_seed(seed, 35) % 1000003),
       0.15},
  };
}

// The job list: request lines and due times (seconds after the phase
// starts), a pure function of the seed and the job count.
struct Schedule {
  std::vector<std::string> warm;  // one job per recipe, sent in set-up
  std::vector<std::string> lines;
  std::vector<double> due_s;
};

Schedule make_schedule(std::uint64_t seed, int jobs) {
  const auto mix = recipes(seed);
  Schedule s;
  for (std::size_t r = 0; r < mix.size(); ++r) {
    s.warm.push_back("job w" + std::to_string(r) + " " + mix[r].flags);
  }
  ccg::Rng rng(derive_seed(seed, 41));
  double t = 0;
  for (int k = 0; k < jobs; ++k) {
    t += -std::log(1.0 - rng.next_double()) / kRate;
    double u = rng.next_double();
    std::size_t r = 0;
    while (r + 1 < mix.size() && u >= mix[r].weight) u -= mix[r++].weight;
    s.lines.push_back("job j" + std::to_string(k) + " " + mix[r].flags);
    s.due_s.push_back(t);
  }
  return s;
}

ccg::server::ServerOptions server_options(std::uint64_t seed) {
  ccg::server::ServerOptions o;
  o.seed = derive_seed(seed, 42);
  o.workers = kWorkers;
  o.queue_depth = kQueueDepth;
  return o;
}

std::unique_ptr<ccg::server::Server> warm_server(std::uint64_t seed,
                                                 const Schedule& s,
                                                 Result* out) {
  auto srv = std::make_unique<ccg::server::Server>(server_options(seed));
  std::string resp;
  int lineno = 0;
  for (const auto& line : s.warm) {
    srv->handle_line(line, ++lineno, &resp);
  }
  srv->drain();
  if (resp.find("shed") != std::string::npos) out->fail("warm-up job shed");
  return srv;
}

// Threads that spin at idle priority (SCHED_IDLE) while the object lives,
// one per worker, for the steady phase. The baseline host is a VM whose
// idle vCPUs halt, and in its slow spells waking a halted vCPU took
// milliseconds: the steady p90 tripled in a third of runs while the
// saturated throughput held. A core that runs an idle-priority spinner
// never halts, and a worker that wakes there preempts the spinner at once.
// In alternating runs at the same seeds, the spinners cut the p90 of slow
// runs from 1.9 to 0.9 ms and from 1.7 to 1.3 ms, and cost quiet runs
// about 7%.
class IdleSpinners {
 public:
  explicit IdleSpinners(int threads) {
    for (int i = 0; i < threads; ++i) {
      threads_.emplace_back([this] {
        // At normal priority a spinner would take cores from the workers.
        sched_param p{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &p) != 0) {
          return;
        }
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

std::uint64_t completed(ccg::server::Server& srv) {
  return srv.scheduler().counters().completed;
}

bool accepted(const std::string& resp) {
  return resp.rfind("accepted ", 0) == 0;
}

struct Steady {
  std::vector<double> sojourn_ms;  // k-th due to k-th completion
  std::vector<double> lag_ms;      // how late the generator sent job k
  double drain_ms = 0;             // last submission to last completion
  int shed = 0;
};

Steady run_steady(ccg::server::Server& srv, const Schedule& s, Tracer* tr) {
  const std::size_t n = s.lines.size();
  Steady st;
  st.lag_ms.resize(n);
  std::vector<Clock::time_point> due(n), done;
  done.reserve(n);
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t k = 0; k < n; ++k) {
    due[k] = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s.due_s[k]));
  }
  const std::uint64_t base = completed(srv);
  std::size_t k = 0, admitted = 0;
  std::vector<char> was_admitted(n, 0);
  Clock::time_point last_submit = t0;
  std::string resp;
  int lineno = 1000;
  while (k < n || done.size() < admitted) {
    const auto now = Clock::now();
    const std::uint64_t c = completed(srv) - base;
    while (done.size() < c) done.push_back(now);
    if (k < n && now >= due[k]) {
      st.lag_ms[k] = msecs(due[k], now);
      resp.clear();
      srv.handle_line(s.lines[k], ++lineno, &resp);
      last_submit = Clock::now();
      if (tr) {
        tr->add("server.admit", static_cast<int>(k), -1, now, last_submit);
      }
      if (accepted(resp)) {
        ++admitted;
        was_admitted[k] = 1;
      } else {
        ++st.shed;
      }
      ++k;
    }
    // Between arrivals the generator spins without yielding: a yield would
    // hand the core to an idle-priority spinner until the next tick.
  }
  // Pair completions with due times of admitted jobs, in order.
  std::size_t j = 0;
  for (std::size_t i = 0; i < n && j < done.size(); ++i) {
    if (!was_admitted[i]) continue;
    st.sojourn_ms.push_back(msecs(due[i], done[j]));
    if (tr) tr->add("job.sojourn", static_cast<int>(i), -1, due[i], done[j]);
    ++j;
  }
  if (!done.empty()) st.drain_ms = msecs(last_submit, done.back());
  return st;
}

// Latency percentiles of the steady phase, per valid window.
struct Windows {
  std::vector<double> lag_p99_ms;      // of every window
  std::vector<double> p50_ms, p90_ms;  // of the valid windows
};

Windows steady_windows(const Steady& st) {
  const std::size_t n = st.sojourn_ms.size();
  const auto slice = [&](const std::vector<double>& v, std::size_t k) {
    return std::vector<double>(v.begin() + static_cast<long>(n * k / kWindows),
                               v.begin() +
                                   static_cast<long>(n * (k + 1) / kWindows));
  };
  Windows w;
  for (std::size_t k = 0; k < kWindows; ++k) {
    w.lag_p99_ms.push_back(quantile(slice(st.lag_ms, k), 0.99));
    if (w.lag_p99_ms.back() > kMaxLagMs) continue;
    const auto sojourn = slice(st.sojourn_ms, k);
    w.p50_ms.push_back(quantile(sojourn, 0.50));
    w.p90_ms.push_back(quantile(sojourn, 0.90));
  }
  return w;
}

struct Saturating {
  double total_s = 0;  // first submission to last completion
  std::array<double, kWindows> jobs_per_s{};  // per window of completions
};

// Saturating phase: queue_depth jobs in flight, sheds resubmitted.
Saturating run_saturating(ccg::server::Server& srv, const Schedule& s,
                          Tracer* tr, int* shed) {
  const std::uint64_t n = s.lines.size();
  const std::uint64_t base = completed(srv);
  std::uint64_t k = 0;
  std::string resp;
  int lineno = 1000000;
  // ends[w]: when the last job of window w completed.
  std::array<Clock::time_point, kWindows> ends;
  std::size_t w = 0;
  const auto t0 = Clock::now();
  for (;;) {
    const std::uint64_t c = completed(srv) - base;
    while (w < ends.size() && c >= n * (w + 1) / kWindows) {
      ends[w++] = Clock::now();
    }
    if (c >= n) break;
    if (k < n && k - c < static_cast<std::uint64_t>(kQueueDepth)) {
      resp.clear();
      const auto a0 = Clock::now();
      srv.handle_line(s.lines[k], ++lineno, &resp);
      if (tr) {
        tr->add("server.admit.saturating", static_cast<int>(k), -1, a0,
                Clock::now());
      }
      if (accepted(resp)) {
        ++k;
      } else {
        ++*shed;
      }
    }
  }
  Saturating r;
  r.total_s = secs(t0, ends.back());
  for (std::size_t i = 0; i < ends.size(); ++i) {
    const double jobs =
        static_cast<double>(n * (i + 1) / kWindows - n * i / kWindows);
    r.jobs_per_s[i] = jobs / secs(i == 0 ? t0 : ends[i - 1], ends[i]);
  }
  return r;
}

// One job row of a drained report (svc::job_result_json's fields).
struct Row {
  std::string id, key, algo, error_code;
  std::uint64_t seed = 0;
  bool ok = false, degraded = false;
  long long n = 0, uncolored = 0, h_rounds = 0, g_rounds = 0, bits = 0,
            fallbacks = 0;
  double wall_ns = 0;
};

std::vector<Row> parse_rows(const std::string& report) {
  std::vector<Row> rows;
  const std::string id_tag = "\"id\": \"";
  std::size_t pos = report.find(id_tag);
  while (pos != std::string::npos) {
    std::size_t end = report.find(id_tag, pos + 1);
    if (end == std::string::npos) end = report.find("\"aggregate\"", pos);
    const std::string_view job =
        std::string_view(report).substr(pos, end - pos);
    const auto field = [&](const char* name) {
      const std::string tag = std::string("\"") + name + "\": ";
      const std::size_t at = job.find(tag);
      if (at == std::string_view::npos) return std::string();
      std::size_t b = at + tag.size();
      std::size_t e = job.find_first_of(",\n}", b);
      if (job[b] == '"') {
        ++b;
        e = job.find('"', b);
      }
      return std::string(job.substr(b, e - b));
    };
    const auto num = [&](const char* name) {
      const std::string v = field(name);
      return v.empty() ? 0.0 : std::stod(v);
    };
    Row r;
    r.id = field("id");
    r.key = field("key");
    r.algo = field("algo");
    r.error_code = field("error_code");
    const std::string seed = field("seed");
    r.seed = seed.empty() ? 0 : std::stoull(seed);
    r.ok = field("ok") == "true";
    r.degraded = field("degraded") == "true";
    r.n = static_cast<long long>(num("n"));
    r.uncolored = static_cast<long long>(num("uncolored"));
    r.h_rounds = static_cast<long long>(num("h_rounds"));
    r.g_rounds = static_cast<long long>(num("g_rounds"));
    r.bits = static_cast<long long>(num("max_bits_per_link_round"));
    r.fallbacks = static_cast<long long>(num("fallback_count"));
    r.wall_ns = num("wall_ns");
    rows.push_back(r);
    pos = report.find(id_tag, end);
  }
  return rows;
}

// Every job ok, not degraded, fully colored; one row per submitted job.
void check_rows(const std::vector<Row>& rows, std::size_t expected,
                Result* out) {
  if (rows.size() != expected) {
    out->fail("report has " + std::to_string(rows.size()) + " jobs, " +
              std::to_string(expected) + " were accepted");
  }
  for (const auto& r : rows) {
    if (!r.ok || r.degraded || r.uncolored != 0 || r.error_code != "ok") {
      out->fail("job " + r.id + " (" + r.key + "): ok=" +
                (r.ok ? "true" : "false") +
                (r.degraded ? " degraded" : "") + " error_code=" +
                r.error_code + " uncolored=" + std::to_string(r.uncolored));
      return;
    }
  }
}

// Re-solve the first job of every recipe outside the server, on an
// instance built by svc::build_instance, check the coloring against H and
// compare the round count and fallbacks with the server's report. Returns
// per-recipe build times (ms) and the solve time (ms) of the low-degree
// recipe.
void cross_check(const Schedule& s, const std::vector<Row>& rows,
                 std::vector<double>* build_ms, double* lowdeg_ms,
                 Result* out) {
  ccg::Solver solver;
  for (std::size_t r = 0; r < s.warm.size(); ++r) {
    const std::string flags = s.warm[r].substr(s.warm[r].find(' ', 4) + 1);
    const auto spec = ccg::svc::parse_job_flags(flags);
    std::string id = "w";
    id += std::to_string(r);
    const Row* row = nullptr;
    for (const auto& x : rows) {
      if (x.id == id) row = &x;
    }
    if (row == nullptr) {
      out->fail("warm-up job " + id + " missing from report");
      return;
    }
    const auto b0 = Clock::now();
    const auto inst = ccg::svc::build_instance(spec);
    build_ms->push_back(msecs(b0, Clock::now()));
    if (!inst.error.empty()) {
      out->fail("build_instance: " + inst.error);
      return;
    }
    ccg::Options o;
    o.algo = spec.algo;
    o.threads = 1;
    o.seed = row->seed;
    const auto t0 = Clock::now();
    const auto got = solver.solve(ccg::Problem::cluster(inst.cg), o);
    const double ms = msecs(t0, Clock::now());
    if (spec.algo == ccg::Algo::kAuto && spec.layout == "singleton") {
      *lowdeg_ms = ms;
    }
    if (!got.ok() ||
        !ccg::cluster::is_proper_total(inst.cg.h(), solver.colors(),
                                       got.result.num_colors) ||
        got.result.h_rounds != row->h_rounds ||
        got.result.fallback_count != row->fallbacks) {
      out->fail("recipe '" + flags +
                "': standalone solve disagrees with the server's report");
      return;
    }
  }
}

}  // namespace

void run_serve_mix(const Args& a, Result* out) {
  const int jobs = static_cast<int>(kRate * a.seconds * kSteadyShare);
  Schedule sched;
  std::unique_ptr<ccg::server::Server> srv;
  const double setup_s = timed_setup(
      a.trace ? 1 : kSetupReps,
      [&] {
        sched = make_schedule(a.seed, jobs);
        srv = warm_server(a.seed, sched, out);
      },
      [&] {
        srv.reset();
        sched = Schedule();
      });
  if (!out->ok()) return;
  const std::size_t expected = sched.warm.size() + sched.lines.size();

  Tracer tr;
  Tracer* tp = a.trace ? &tr : nullptr;
  const auto before = srv->scheduler().counters();
  const Steady st = [&] {
    const IdleSpinners spinners(kWorkers);
    return run_steady(*srv, sched, tp);
  }();
  const auto after = srv->scheduler().counters();
  out->attempted += static_cast<long long>(sched.lines.size());
  if (st.shed > 0) {
    out->fail(std::to_string(st.shed) + " jobs shed in the steady phase");
  }
  // Only the hash of the (large) deterministic report is kept.
  std::vector<Row> rows;
  std::uint64_t report_hash = 0;
  {
    const std::string report = srv->report_json(false);
    report_hash = fnv1a(report);
    rows = parse_rows(report);
  }
  check_rows(rows, expected, out);
  if (!out->ok()) return;
  std::vector<Row> timed_rows;
  if (a.trace) timed_rows = parse_rows(srv->report_json(true));
  const std::string stats = a.trace ? srv->stats_json() : "";
  srv.reset();

  // Saturating phase on a fresh server: same jobs, same seeds, so the
  // drained report must come out byte-identical.
  // In the traced binary this pass also counts the server path's
  // allocations; nothing of the benchmark's allocates inside it.
  int sat_shed = 0;
  auto sat = warm_server(a.seed, sched, out);
  const long long a0 = alloc_count();
  const Saturating sat_run = run_saturating(*sat, sched, nullptr, &sat_shed);
  const long long sat_allocs = alloc_count() - a0;
  if (fnv1a(sat->report_json(false)) != report_hash) {
    out->fail("saturating-phase report differs from the steady-phase one");
  }
  sat.reset();
  std::vector<double> build_ms;
  double lowdeg_ms = 0;
  cross_check(sched, rows, &build_ms, &lowdeg_ms, out);
  if (!out->ok()) return;

  const double lag_p99 = quantile(st.lag_ms, 0.99);
  out->info("jobs", std::to_string(sched.lines.size()));
  out->info("rate_per_s", std::to_string(static_cast<int>(kRate)));
  char hash[24];
  std::snprintf(hash, sizeof(hash), "\"%016llx\"",
                static_cast<unsigned long long>(report_hash));
  out->info("report_hash", hash);
  out->info("gen_lag_ms_p99", std::to_string(lag_p99));
  const Windows win = steady_windows(st);
  const int valid = static_cast<int>(win.p50_ms.size());
  out->info("valid_windows", std::to_string(valid));
  out->info("window_lag_ms_p99", json_list(win.lag_p99_ms));
  const std::vector<double> sat_rates(sat_run.jobs_per_s.begin(),
                                      sat_run.jobs_per_s.end());
  out->info("window_jobs_per_s", json_list(sat_rates));
  if (valid < kMinValidWindows) {
    out->fail("run invalid: the generator fell behind in " +
              std::to_string(kWindows - valid) + " of " +
              std::to_string(kWindows) + " steady windows");
    return;
  }

  double h = 0, g = 0, fallbacks = 0, vertices = 0, bits = 0;
  for (const auto& r : rows) {
    h += static_cast<double>(r.h_rounds);
    g += static_cast<double>(r.g_rounds);
    fallbacks += static_cast<double>(r.fallbacks);
    vertices += static_cast<double>(r.n);
    bits = std::max(bits, static_cast<double>(r.bits));
  }
  if (!a.trace) {
    const double nrows = static_cast<double>(rows.size());
    out->metric("jobs_per_s", quantile(sat_rates, 0.75), "jobs/s");
    out->metric("latency_p50_ms", quantile(win.p50_ms, 0.25), "ms");
    out->metric("latency_p90_ms", quantile(win.p90_ms, 0.25), "ms");
    out->metric("h_rounds_mean", h / nrows, "rounds");
    out->metric("g_rounds_mean", g / nrows, "rounds");
    out->metric("max_link_bits", bits, "bits");
    out->metric("setup_s", setup_s, "s");
    return;
  }

  // ---- traced run: per-layer metrics ----
  std::vector<double> admit_us, service_all, service_fast, service_auto;
  for (const double ms : tr.durations_ms("server.admit")) {
    admit_us.push_back(ms * 1e3);
  }
  double service_sum = 0;
  for (const auto& r : timed_rows) {
    if (r.id[0] != 'j') continue;  // steady-phase jobs only
    const double ms = r.wall_ns / 1e6;
    service_sum += ms;
    if (r.wall_ns <= 0) continue;  // answered by the result cache
    service_all.push_back(ms);
    (r.algo == "fast" ? service_fast : service_auto).push_back(ms);
  }
  const double nj = static_cast<double>(sched.lines.size());
  out->metric("server.admit_us_p50", quantile(admit_us, 0.50), "us");
  out->metric("server.admit_us_p99", quantile(admit_us, 0.99), "us");
  out->metric("server.service_ms_p50.fast", median(service_fast), "ms");
  out->metric("server.service_ms_p50.auto", median(service_auto), "ms");
  out->metric("server.service_ms_p99", quantile(service_all, 0.99), "ms");
  out->metric("server.sojourn_ms_p99", quantile(st.sojourn_ms, 0.99), "ms");
  out->metric("server.queue_wait_ms_mean",
              mean(st.sojourn_ms) - service_sum / nj, "ms");
  out->metric("server.drain_ms", st.drain_ms, "ms");
  out->metric("server.steals",
              static_cast<double>(after.steals - before.steals), "count");
  out->metric("server.result_hit_ratio",
              static_cast<double>(after.result_hits - before.result_hits) / nj,
              "share");
  {
    const std::size_t at = stats.find("\"instance_cache\"");
    const auto count = [&](const char* name) {
      const std::string tag = std::string("\"") + name + "\": ";
      const std::size_t p = stats.find(tag, at);
      return p == std::string::npos ? 0.0
                                    : std::stod(stats.substr(p + tag.size()));
    };
    const double hits = count("hits"), misses = count("misses");
    out->metric("server.instance_hit_ratio", hits / (hits + misses), "share");
  }
  out->metric("server.shed", sat_shed, "count");
  out->metric("color.fallback_ratio", fallbacks / vertices, "share");
  out->metric("gen.lag_ms_p99", lag_p99, "ms");

  // Tracing overhead: the saturating phase again, traced.
  int traced_shed = 0;
  auto traced_srv = warm_server(a.seed, sched, out);
  const double traced_s =
      run_saturating(*traced_srv, sched, &tr, &traced_shed).total_s;
  if (fnv1a(traced_srv->report_json(false)) != report_hash) {
    out->fail("traced saturating-phase report differs from the steady one");
  }
  traced_srv.reset();
  out->metric("trace.overhead_ratio", traced_s / sat_run.total_s, "x");
  out->metric("api.allocs_per_job", static_cast<double>(sat_allocs) / nj,
              "count");

  out->metric("svc.instance_build_ms", mean(build_ms), "ms");
  out->metric("lowdeg.solve_ms", lowdeg_ms, "ms");
  if (!a.trace_out.empty() && !tr.write(a.trace_out)) {
    out->fail("cannot write " + a.trace_out);
  }
}

}  // namespace ccgbench
