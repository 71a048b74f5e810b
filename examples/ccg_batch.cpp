// ccg_batch — batch coloring CLI.
//
// Reads a job manifest (see src/svc/manifest.hpp for the format), submits
// its jobs to an in-process server (src/server/server.hpp: the same
// scheduler and report writer as ccg_serve), drains it and prints the
// JSON report.
//
//   ccg_batch --manifest jobs.txt
//   ccg_batch --manifest - < jobs.txt            (stdin)
//   ccg_batch --manifest jobs.txt --sched-workers 8 --out report.json
//   ccg_batch --manifest jobs.txt --no-timing    (deterministic output:
//       byte-identical for every --sched-workers value and job order)
//   ccg_batch --manifest jobs.txt --max-retries 2 --degrade
//             --deadline-ms 5000                 (fault-tolerant serving)
//
// Exit codes: 0 = every job ok and none degraded; 1 = at least one job
// failed; 2 = usage or manifest error; 3 = no failures but at least one
// job was served by the degradation fallback. (Documented in API.md.)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "ccg/ccg.hpp"
#include "common/failpoint.hpp"
#include "common/parse.hpp"
#include "server/server.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: ccg_batch --manifest <path|-> [--sched-workers w]\n"
      "                 [--out report.json] [--no-timing] [--quiet]\n"
      "                 [--max-retries r] [--degrade] [--deadline-ms ms]\n"
      "  --manifest       job manifest file; '-' reads stdin\n"
      "  --sched-workers  inter-job scheduler workers (0 = hardware)\n"
      "  --out            write the JSON report here instead of stdout\n"
      "  --no-timing      omit timing/config fields: output is\n"
      "                   byte-identical for every worker count\n"
      "  --quiet          no summary line on stderr\n"
      "  --max-retries    deterministic retries per job after an internal\n"
      "                   failure or missed deadline (default 0)\n"
      "  --degrade        retries exhausted: serve the sequential greedy\n"
      "                   (Delta+1)-coloring, flagged 'degraded'\n"
      "  --deadline-ms    per-attempt deadline for jobs without their own\n"
      "                   --deadline-ms (0 = none)\n"
      "exit codes: 0 all ok, 1 failed jobs, 2 usage/manifest error,\n"
      "            3 degraded jobs only\n");
  return 2;
}

// Strict parse + range check: out-of-range worker counts exit 2 here
// instead of tripping checks inside the scheduler.
int parse_int_arg(const char* flag, const std::string& val, int lo,
                  int hi) {
  const auto x = ccg::parse_int_strict(val);
  if (!x || *x < lo || *x > hi) {
    std::fprintf(stderr,
                 "ccg_batch: invalid value '%s' for %s (must be an "
                 "integer in [%d, %d])\n",
                 val.c_str(), flag, lo, hi);
    std::exit(usage());
  }
  return *x;
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  std::string out_path;
  int sched_workers = 1;
  int max_retries = 0;
  std::int64_t deadline_ms = 0;
  bool degrade = false;
  bool include_timing = true;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--no-timing") {
      include_timing = false;
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--degrade") {
      degrade = true;
    } else if (a == "--help") {
      return usage();
    } else if (a == "--manifest" && i + 1 < argc) {
      manifest_path = argv[++i];
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--sched-workers" && i + 1 < argc) {
      sched_workers = parse_int_arg("--sched-workers", argv[++i], 0,
                                    ccg::Options::kMaxThreads);
    } else if (a == "--max-retries" && i + 1 < argc) {
      max_retries = parse_int_arg("--max-retries", argv[++i], 0, 1000);
    } else if (a == "--deadline-ms" && i + 1 < argc) {
      deadline_ms = parse_int_arg("--deadline-ms", argv[++i], 0,
                                  std::numeric_limits<int>::max());
    } else {
      std::fprintf(stderr, "ccg_batch: unknown or incomplete flag '%s'\n",
                   a.c_str());
      return usage();
    }
  }
  if (manifest_path.empty()) return usage();

  ccg::svc::Manifest manifest;
  try {
    manifest = manifest_path == "-"
                   ? ccg::svc::parse_manifest(std::cin)
                   : ccg::svc::parse_manifest_file(manifest_path);
  } catch (const ccg::svc::ManifestError& e) {
    std::fprintf(stderr, "ccg_batch: manifest error: %s\n", e.what());
    return 2;
  }

  // Environment-armed failpoints (CCG_FAILPOINTS="site=throw;...") for
  // fault drills against the stock binary; a no-op when unset.
  try {
    ccg::fail::arm_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccg_batch: bad CCG_FAILPOINTS spec: %s\n",
                 e.what());
    return 2;
  }

  ccg::server::ServerOptions base;
  base.workers = sched_workers;
  base.max_retries = max_retries;
  base.degrade = degrade;
  base.deadline_ms = deadline_ms;
  ccg::server::Server server(
      ccg::server::manifest_server_options(manifest, base));
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < manifest.jobs.size(); ++i) {
    // Unique ids and a depth of one slot per job: every job is accepted.
    ccg::server::submit_manifest_job(server, manifest, i);
  }
  const auto agg = server.aggregate();
  const std::chrono::duration<double> secs =
      std::chrono::steady_clock::now() - t0;
  const auto json = server.report_json(include_timing);

  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::ofstream f(out_path);
    if (!f) {
      std::fprintf(stderr, "ccg_batch: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
    f << json;
  }

  if (!quiet) {
    std::fprintf(stderr,
                 "ccg_batch: %d/%d jobs ok, %d scheduler worker(s), "
                 "%.1f jobs/sec\n",
                 agg.ok_jobs, agg.num_jobs, server.scheduler().workers(),
                 secs.count() > 0 ? agg.num_jobs / secs.count() : 0.0);
    if (agg.jobs_failed + agg.jobs_retried + agg.jobs_degraded > 0) {
      std::fprintf(stderr,
                   "ccg_batch: %d job(s) failed, %d retried, %d degraded\n",
                   agg.jobs_failed, agg.jobs_retried, agg.jobs_degraded);
    }
  }
  if (agg.jobs_failed > 0) return 1;
  return agg.jobs_degraded > 0 ? 3 : 0;
}
