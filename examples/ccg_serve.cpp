// ccg_serve — persistent coloring server (src/server/).
//
// Accepts jobs as a streamed line protocol (see src/server/protocol.hpp)
// over stdin, a Unix-domain socket or a loopback TCP port, schedules
// them on per-worker run queues with work stealing, and answers with
// per-job responses plus drained reports on request.
//
//   ccg_serve < jobs.txt                         (stdio, strict)
//   ccg_serve --workers 8 --queue-depth 128 < jobs.txt
//   ccg_serve --unix /tmp/ccg.sock --workers 4   (socket server)
//   ccg_serve --tcp 7777 --max-retries 2 --degrade
//
// Request stream example:
//
//   job a1 --gen gnm --n 2000 --m 16000 --algo fast
//   job a2 --gen planted --delta 128 --cliques 4 --algo high
//   report notiming
//   quit
//
// In stdio mode a malformed request exits 2 (the batch CLI's bad-input
// code: scripted drivers want to fail fast); socket connections get an
// `error` response and keep serving. The drained `report notiming`
// output is byte-identical for every --workers value, client
// interleaving and steal schedule.
//
// Exit codes: 0 = served until quit/EOF; 2 = usage error, bad request in
// stdio mode, or bad CCG_FAILPOINTS spec; 3 = listener setup failure.
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>

#include "common/failpoint.hpp"
#include "common/parse.hpp"
#include "server/net.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: ccg_serve [--seed s] [--workers w] [--queue-depth d]\n"
      "                 [--threads t] [--max-retries r] [--degrade]\n"
      "                 [--deadline-ms ms] [--cache-mb mb]\n"
      "                 [--unix path | --tcp port]\n"
      "  --seed         server seed: per-job seeds derive from (seed, id)\n"
      "  --workers      scheduler workers (0 = hardware, default 1)\n"
      "  --queue-depth  admission bound on in-flight jobs (default 256);\n"
      "                 beyond it submissions are shed with explicit\n"
      "                 backpressure, never queued silently\n"
      "  --threads      default intra-job threads for jobs without\n"
      "                 --threads (default 1)\n"
      "  --max-retries  deterministic retries per job after an internal\n"
      "                 failure or missed deadline (default 0)\n"
      "  --degrade      retries exhausted: serve the sequential greedy\n"
      "                 (Delta+1)-coloring, flagged 'degraded'\n"
      "  --deadline-ms  per-attempt deadline default (0 = none)\n"
      "  --cache-mb     cross-job cache budget in MiB (default 64; 0\n"
      "                 disables the instance and result caches); 3/4 of\n"
      "                 it holds instances, charged by their full heap, so\n"
      "                 a larger instance is rebuilt per job, and 1/16\n"
      "                 holds results\n"
      "  --unix         serve a Unix-domain socket instead of stdio\n"
      "  --tcp          serve loopback TCP on this port instead of stdio\n"
      "exit codes: 0 served, 2 usage/request error, 3 listener failure\n");
  return 2;
}

int parse_int_arg(const char* flag, const std::string& val, int lo, int hi) {
  const auto x = ccg::parse_int_strict(val);
  if (!x || *x < lo || *x > hi) {
    std::fprintf(stderr,
                 "ccg_serve: invalid value '%s' for %s (must be an "
                 "integer in [%d, %d])\n",
                 val.c_str(), flag, lo, hi);
    std::exit(usage());
  }
  return *x;
}

}  // namespace

int main(int argc, char** argv) {
  ccg::server::ServerOptions opt;
  std::string unix_path;
  int tcp_port = -1;
  int cache_mb = 64;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help") {
      return usage();
    } else if (a == "--degrade") {
      opt.degrade = true;
    } else if (a == "--seed" && i + 1 < argc) {
      const auto s = ccg::parse_u64_strict(argv[++i]);
      if (!s) {
        std::fprintf(stderr, "ccg_serve: invalid --seed\n");
        return usage();
      }
      opt.seed = *s;
    } else if (a == "--workers" && i + 1 < argc) {
      opt.workers = parse_int_arg("--workers", argv[++i], 0,
                                  ccg::Options::kMaxThreads);
    } else if (a == "--queue-depth" && i + 1 < argc) {
      opt.queue_depth = parse_int_arg("--queue-depth", argv[++i], 1,
                                      1 << 20);
    } else if (a == "--threads" && i + 1 < argc) {
      opt.default_threads = parse_int_arg("--threads", argv[++i], 0,
                                          ccg::Options::kMaxThreads);
    } else if (a == "--max-retries" && i + 1 < argc) {
      opt.max_retries = parse_int_arg("--max-retries", argv[++i], 0, 1000);
    } else if (a == "--deadline-ms" && i + 1 < argc) {
      opt.deadline_ms = parse_int_arg("--deadline-ms", argv[++i], 0,
                                      std::numeric_limits<int>::max());
    } else if (a == "--cache-mb" && i + 1 < argc) {
      cache_mb = parse_int_arg("--cache-mb", argv[++i], 0, 1 << 20);
    } else if (a == "--unix" && i + 1 < argc) {
      unix_path = argv[++i];
    } else if (a == "--tcp" && i + 1 < argc) {
      tcp_port = parse_int_arg("--tcp", argv[++i], 1, 65535);
    } else {
      std::fprintf(stderr, "ccg_serve: unknown or incomplete flag '%s'\n",
                   a.c_str());
      return usage();
    }
  }
  if (!unix_path.empty() && tcp_port >= 0) {
    std::fprintf(stderr, "ccg_serve: --unix and --tcp are exclusive\n");
    return usage();
  }

  // Split the budget the way the defaults are proportioned (64 MiB gives
  // CacheBudgets{}): instances dominate, results are tiny.
  const std::size_t total = static_cast<std::size_t>(cache_mb) << 20;
  opt.cache.instance_bytes = total / 4 * 3;
  opt.cache.result_bytes = total / 16;

  // Environment-armed failpoints (CCG_FAILPOINTS="site=throw;...") for
  // fault drills against the stock binary; a no-op when unset.
  try {
    ccg::fail::arm_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccg_serve: bad CCG_FAILPOINTS spec: %s\n",
                 e.what());
    return 2;
  }

  ccg::server::Server server(opt);
  if (!unix_path.empty()) return ccg::server::serve_unix(server, unix_path);
  if (tcp_port >= 0) return ccg::server::serve_tcp(server, tcp_port);
  return ccg::server::serve_stream(server, std::cin, std::cout,
                                   /*strict=*/true);
}
