// Serving: one Server owns the job state machine behind both CLIs —
// `ccg_serve` (examples/ccg_serve.cpp) streams requests into it, and
// `ccg_batch` (examples/ccg_batch.cpp) submits a manifest's jobs to an
// in-process one.
//
// A Server ties the pieces together: protocol parsing (protocol.hpp),
// admission + work-stealing execution (scheduler.hpp) and the cross-job
// caches (cache.hpp). Transports are deliberately outside: net.hpp
// drives handle_line() from stdin or from socket connections; tests
// drive it directly.
//
// Determinism contract: each job's seeds are fixed at admission — a
// protocol job's coloring seed is a pure function of (server seed,
// client id) (derive_serve_seed), a manifest job keeps the one its
// manifest derived from (manifest seed, index) — and the report is
// ordered by id, so the drained no-timing report is byte-identical for
// every worker count, submission order, client interleaving, steal
// schedule and cache state. Shed jobs are excluded from the report
// (whether a job sheds is timing); accepted jobs are in, whatever order
// they arrived.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/thread_safety.hpp"
#include "server/cache.hpp"
#include "server/protocol.hpp"
#include "server/scheduler.hpp"
#include "svc/manifest.hpp"

namespace ccg::server {

struct ServerOptions {
  std::uint64_t seed = 1;   // server seed: the manifest-seed analogue
  int workers = 1;          // scheduler workers (<= 0: hardware)
  int queue_depth = 256;    // admission bound (queued + running jobs)
  int default_threads = 1;  // intra-job threads for jobs without --threads
  // Failure policy (svc::RunPolicy semantics).
  int max_retries = 0;
  bool degrade = false;
  std::int64_t deadline_ms = 0;  // default for jobs without --deadline-ms
  CacheBudgets cache;
};

class Server {
 public:
  // Construction starts the scheduler workers; destruction stops them.
  explicit Server(const ServerOptions& opt);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  enum class Admission {
    kAccepted,
    kShed,         // admission bound reached: not queued, id stays free
    kDuplicateId,  // id already accepted: not queued
  };

  // The one admission entry every job takes. `job.index` and
  // `job.params_seed` must already be set: handle_line derives them
  // from the id, submit_manifest_job keeps the manifest's. Thread-safe.
  Admission submit(std::string id, svc::JobSpec job);

  // Handle one request line (1-based lineno feeds the shared error
  // model). Appends the response line(s) to *out; returns false when the
  // connection should close (quit). Malformed requests throw
  // svc::ManifestError — the transport chooses between an `error`
  // response (sockets) and exit 2 (strict stdio), exactly the batch
  // CLI's split. Thread-safe: connection handlers call this
  // concurrently.
  bool handle_line(const std::string& line, int lineno, std::string* out);

  // Block until every accepted job completed.
  void drain();

  // Deterministic tallies over every accepted job: the report's
  // `num_jobs` and `aggregate` block. Drains first.
  struct Aggregate {
    int num_jobs = 0;
    int ok_jobs = 0;
    int jobs_failed = 0;    // !ok
    int jobs_retried = 0;   // more than one attempt, whatever the verdict
    int jobs_degraded = 0;  // ok, served by the greedy fallback
    std::int64_t total_h_rounds = 0;
    std::int64_t total_g_rounds = 0;
    std::int64_t total_fallbacks = 0;
  };
  Aggregate aggregate();

  // Drained report over every accepted job, ordered by id.
  // include_timing=false drops wall clocks, the SLO section and every
  // other timing-dependent field; what remains is byte-identical across
  // serving configurations.
  std::string report_json(bool include_timing);

  // One JSON object of timing-class counters (queue, sheds, steals,
  // cache hit rates, per-class latency quantiles). Never part of the
  // deterministic report.
  std::string stats_json();

  const ServerOptions& options() const { return opt_; }
  Scheduler& scheduler() { return sched_; }

 private:
  void append_report(bool include_timing, std::string* out);
  Aggregate tally() CCG_REQUIRES(mu_);

  const ServerOptions opt_;
  ServeCache cache_;
  Scheduler sched_;
  // Serializes submissions against report/drain. Lock order: mu_ before
  // the scheduler's internal lock (report_json holds mu_ across
  // sched_.drain()); scheduler workers never take mu_, so queued jobs
  // keep completing while a drain holds it.
  Mutex mu_;
  // id -> task, sorted: report iteration order == id order. The mapped
  // Task objects are handed to the scheduler by pointer; their result
  // fields are written by exactly one worker and read only after drain()
  // (the scheduler's pending_ handoff is the happens-before edge).
  std::map<std::string, std::unique_ptr<Task>> tasks_ CCG_GUARDED_BY(mu_);
};

// `base` made fit to serve manifest `m`: seed = manifest seed (the retry
// seeds' root) and queue_depth = max(1, job count), so no job sheds.
ServerOptions manifest_server_options(const svc::Manifest& m,
                                      ServerOptions base);

// Submit manifest job i under id = i zero-padded to the width of the
// last index, so the id-ordered report lists jobs in manifest order. The
// job keeps its manifest index and params_seed, so retries draw
// derive_retry_seed(manifest seed, i, attempt). `srv` must run on
// manifest_server_options(m, ...).
Server::Admission submit_manifest_job(Server& srv, const svc::Manifest& m,
                                      std::size_t i);

}  // namespace ccg::server
