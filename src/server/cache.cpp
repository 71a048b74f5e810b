#include "server/cache.hpp"

#include <cstdio>

namespace ccg::server {

namespace {

std::string fmt_real(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::size_t instance_bytes(const svc::Instance& inst) {
  // Virtual modes hold their encoding in vg and leave cg empty.
  std::size_t b = sizeof(svc::Instance) + inst.key.size() +
                  inst.error.size() + inst.cg.heap_bytes();
  if (inst.vg) b += inst.vg->heap_bytes();
  return b;
}

std::size_t result_bytes(const svc::JobResult& r) {
  return sizeof(svc::JobResult) + r.error.size();
}

std::string result_key(const svc::JobSpec& job) {
  std::string key = job.key;
  key += "|algo=";
  key += ccg::algo_name(job.algo);
  key += "|seed=" + std::to_string(job.params_seed);
  key += "|eps=" + fmt_real(job.eps > 0 ? job.eps : 0.0);
  if (job.oracle) key += "|oracle";
  return key;
}

bool result_cacheable(const svc::JobResult& r) {
  return r.ok && !r.degraded && r.code == ErrorCode::kOk && r.attempts == 1;
}

}  // namespace ccg::server
