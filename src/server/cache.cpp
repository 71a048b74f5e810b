#include "server/cache.hpp"

#include <cstdio>

namespace ccg::server {

namespace {

using graph::capacity_bytes;

std::string fmt_real(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Suffix every execution knob the cached object depends on. The
// instance key (JobSpec::key) already pins the recipe, mode, layout and
// graph seed; threads are deliberately absent everywhere (results and
// snapshots are bit-identical across thread counts).
std::string execution_suffix(const svc::JobSpec& job) {
  std::string key;
  key += "|seed=" + std::to_string(job.params_seed);
  key += "|eps=" + fmt_real(job.eps > 0 ? job.eps : 0.0);
  if (job.oracle) key += "|oracle";
  return key;
}

}  // namespace

std::size_t instance_bytes(const svc::Instance& inst) {
  // Virtual modes hold their encoding in vg and leave cg empty.
  std::size_t b = sizeof(svc::Instance) + inst.key.size() +
                  inst.error.size() + inst.cg.heap_bytes();
  if (inst.vg) b += inst.vg->heap_bytes();
  return b;
}

std::size_t dense_bytes(const color::DenseSnapshot& snap) {
  std::size_t b = sizeof(color::DenseSnapshot);
  b += capacity_bytes(snap.acd.clique_of);
  b += capacity_bytes(snap.acd.degree_est);
  for (const auto& members : snap.acd.members) b += capacity_bytes(members);
  b += snap.acd.members.capacity() * sizeof(std::vector<int>);
  b += capacity_bytes(snap.info.ext_est);
  b += capacity_bytes(snap.info.clique_size);
  b += capacity_bytes(snap.info.avg_ext_est);
  b += snap.info.is_cabal.capacity() / 8;
  b += capacity_bytes(snap.info.ext_off) + capacity_bytes(snap.info.ext_adj);
  b += capacity_bytes(snap.info.anti_off) + capacity_bytes(snap.info.anti_adj);
  b += capacity_bytes(snap.reserved);
  return b;
}

std::size_t result_bytes(const svc::JobResult& r) {
  return sizeof(svc::JobResult) + r.error.size();
}

std::string dense_key(const svc::JobSpec& job) {
  return job.key + execution_suffix(job);
}

std::string result_key(const svc::JobSpec& job) {
  return job.key + "|algo=" + ccg::algo_name(job.algo) +
         execution_suffix(job);
}

bool result_cacheable(const svc::JobResult& r) {
  return r.ok && !r.degraded && r.code == ErrorCode::kOk && r.attempts == 1;
}

}  // namespace ccg::server
