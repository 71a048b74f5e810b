// Job manifests: the input of ccg_batch, which serves them on an
// in-process server (submit_manifest_job in src/server/server.hpp).
//
// A manifest is a line-based text description of a stream of coloring
// jobs — the serving shape of real (Delta+1)-coloring deployments
// (frequency allocation, TDMA slots, maintenance windows): many
// small-to-medium instances, not one giant one.
//
//   # comment; blank lines ignored; '#' starts a comment anywhere
//   seed 42          # manifest seed (default 1); must precede job lines
//   threads 2        # default intra-job Params::threads for later jobs
//   repeat 4         # default expansion count for later job lines
//   job --gen gnm --n 2000 --m 16000 --layout star --cluster-size 4
//   job --gen planted --delta 128 --cliques 4 --ext 12 --algo fast
//   job --dimacs graphs/queen8_8.col --threads 1 --repeat 1
//
// Job flags: --gen {gnm|gnp|chunglu|caveman|planted|grid|cycle} or
// --dimacs <path>; generator args --n --m --p --avg-deg --gamma
// --cliques --size --bridges --delta --ext --anti --sparse --w --h;
// --mode {cluster|edge|dist2} (edge = color the line graph, dist2 =
// color G^2 as a virtual graph; both require the singleton layout);
// --layout {singleton|star|path|tree|bridge} --cluster-size --links-per-edge;
// --graph-seed (instance identity; default: current manifest seed);
// --algo {auto|high|low|fast}; --threads; --repeat; --seed (explicit
// params seed); --eps; --oracle (exact-oracle ACD + unmeasured bits, the
// bench calibration for large batches). Numeric ranges are validated
// at parse time (bad eps/threads/counts fail with "line N: ..."),
// not mid-run. The job-line grammar itself (JobSpec, parse_job_tokens)
// lives in svc/jobspec.hpp, shared verbatim with the serving protocol
// (src/server/protocol.hpp) — one parser, one error model, for both.
//
// Each `job` line expands into `repeat` jobs. Every expanded job gets a
// manifest-order index, and — unless --seed pins it — its coloring seed is
// derived from the counter-based stream RNG keyed on (manifest seed, job
// index) (common/rng.hpp). Seeds therefore never depend on which scheduler
// worker runs the job, in what order, or at what intra-job thread count:
// the whole batch output is bit-identical for every configuration.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "svc/jobspec.hpp"

namespace ccg::svc {

struct Manifest {
  std::uint64_t seed = 1;
  std::vector<JobSpec> jobs;
};

Manifest parse_manifest(std::istream& in);
Manifest parse_manifest_string(const std::string& text);
Manifest parse_manifest_file(const std::string& path);  // throws on I/O too

// Per-job coloring seed: a pure function of (manifest seed, job index)
// through the counter-based stream RNG, so any scheduler assignment
// reproduces the same bits.
std::uint64_t derive_job_seed(std::uint64_t manifest_seed, int job_index);

// Seed of retry `attempt` (>= 1) of a job: a pure function of (manifest
// seed, job index, attempt), distinct from every attempt-0 seed, so the
// whole retry trajectory of a batch is scheduler-independent too.
// Attempt 0 is the job's own params_seed.
std::uint64_t derive_retry_seed(std::uint64_t manifest_seed, int job_index,
                                int attempt);

// Fills params_seed for every job that has no explicit seed. parse_manifest
// calls this; programmatic manifest builders (benches, tests) must call it
// after assembling `jobs`.
void finalize_job_seeds(Manifest& m);

}  // namespace ccg::svc
