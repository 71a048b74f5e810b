// Line protocol of the serving mode (examples/ccg_serve.cpp).
//
// Requests are single text lines, one request per line, over stdin or a
// Unix/TCP socket connection:
//
//   job <id> <flags...>   submit one coloring job. <id> is the client's
//                         handle for the result ([A-Za-z0-9_.:-], max 64
//                         chars, unique per server); the flags are the
//                         manifest job-line grammar verbatim (see
//                         svc/manifest.hpp) minus --repeat — a request
//                         names exactly one job.
//   drain                 block until every accepted job has completed.
//   report [notiming]     drain, then emit the report framed as
//                         report-begin / <json> / report-end. `notiming`
//                         omits every timing-dependent field; what
//                         remains is byte-identical across worker
//                         counts, client interleavings and steal
//                         schedules.
//   stats                 JSON counters framed as stats-begin /
//                         stats-end (queue depth, sheds, steals, cache
//                         hits, latency quantiles). Timing-class data:
//                         never part of the deterministic report.
//   quit                  close the connection (stdio: exit 0).
//
// Responses are single lines too: `accepted <id>`, `shed <id>
// queue_full` (admission bound hit — the job was NOT queued and may be
// resubmitted later), `error line N: <what>`, `ok drain`, `bye`, plus
// the framed report/stats payloads.
//
// Parsing reuses the manifest machinery end to end: the job flags go
// through svc::parse_job_tokens and malformed requests raise the same
// svc::ManifestError ("line N: ...") a bad manifest line does — batch
// CLIs and the strict stdio serving mode both exit 2 on them, socket
// connections get an `error` response and keep serving.
#pragma once

#include <cstdint>
#include <string>

#include "svc/jobspec.hpp"

namespace ccg::server {

enum class RequestKind { kJob, kDrain, kReport, kStats, kQuit };

struct Request {
  RequestKind kind = RequestKind::kDrain;
  // kJob only.
  std::string id;
  svc::JobSpec job;  // index/params_seed left for the server to derive
  // kReport only: include timing-dependent fields.
  bool timing = true;
};

// Parse one request line (1-based `lineno` feeds the shared error
// model). Blank and '#'-comment lines come back as std::nullopt-like
// `false`; a malformed request throws svc::ManifestError. `def` supplies
// the server's job-line defaults (threads; allow_repeat is forced off —
// a request is exactly one job).
bool parse_request(const std::string& line, int lineno,
                   const svc::JobLineDefaults& def, Request* out);

// FNV-1a 64-bit of the id string: the stable identity the server derives
// per-job seeds and retry indices from. Exposed for tests pinning the
// seed derivation.
std::uint64_t id_hash(const std::string& id);

// Per-job coloring seed of a served job: a pure function of (server
// seed, id) through the counter-based stream RNG — the serving analogue
// of svc::derive_job_seed. No scheduler state enters, so the whole
// report is reproducible from (server seed, submitted lines) alone.
std::uint64_t derive_serve_seed(std::uint64_t server_seed,
                                const std::string& id);

}  // namespace ccg::server
