// Failpoint registry: named, deterministic fault-injection sites.
//
// Production serving treats faults as traffic, so the fault paths need to
// be exercisable on demand. A failpoint is a named site in library code:
//
//   CCG_FAILPOINT("pipeline.phase.sparse");            // anonymous hit
//   CCG_FAILPOINT_ARG("pipeline.phase.sparse", seed);  // tagged hit
//
// Tests (or the CCG_FAILPOINTS environment variable, see arm_from_env)
// arm a site with an action:
//
//   fail::ArmSpec spec;
//   spec.action = fail::Action::kThrow;   // ContractViolation
//   // kBadAlloc — simulate allocation failure (std::bad_alloc)
//   // kDelayMs  — cooperative spin-delay (tests deadlines; interruptible
//   //             through the thread's CancelToken, see below)
//   fail::arm("pipeline.phase.sparse", spec);
//
// Determinism. Parallel serving makes global hit *counting* racy, so the
// deterministic selector is the hit argument: sites tag each hit with a
// value that identifies the logical unit of work (the pipeline tags the
// run's seed), and ArmSpec::match_arg restricts firing to exactly that
// unit. A fault armed on one (job, attempt) seed fires on that attempt
// and no other, for every scheduler-worker count and execution order —
// this is what pins the batch service's byte-identical-with-faults
// report contract. skip/times counters remain available for
// single-threaded unit tests.
//
// Cost. Disarmed sites cost one relaxed atomic load of a global counter
// (no allocation, no branch beyond the test) — the warm fast path stays
// zero allocations per job.
//
// Delay + deadlines. The kDelayMs action sleeps in 1 ms slices and
// aborts early once the calling thread's CancelToken (installed by
// ccg::Solver via ScopedThreadCancel for the duration of a solve)
// expires — so a spin-delay armed against a deadline returns control
// promptly instead of serving the full delay, and the next cooperative
// check surfaces kDeadlineExceeded.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace ccg {

class CancelToken;

namespace fail {

enum class Action {
  kThrow,     // throw ccg::ContractViolation("failpoint <name>")
  kBadAlloc,  // throw std::bad_alloc (simulated allocation failure)
  kDelayMs,   // cooperative delay of ArmSpec::delay_ms milliseconds
};

struct ArmSpec {
  Action action = Action::kThrow;
  int delay_ms = 0;  // kDelayMs only
  // Fire only on hits whose argument equals this value (the
  // deterministic selector — see the header comment). nullopt matches
  // every hit.
  std::optional<std::uint64_t> match_arg;
  // Of the matching hits: skip the first `skip`, then fire `times` times
  // (-1 = every time) before going dormant.
  int skip = 0;
  int times = -1;
};

// Arm (or re-arm, replacing the previous spec and counters) a site.
void arm(const std::string& name, const ArmSpec& spec);
void disarm(const std::string& name);
void disarm_all();

// Number of times the named site's action actually executed since it was
// last armed. 0 for unarmed names.
std::int64_t fire_count(const std::string& name);

// Parse a spec string and arm accordingly. Grammar (';'-separated):
//   name=throw | name=badalloc | name=delay:<ms>
// Returns the number of sites armed; throws std::invalid_argument on a
// malformed spec. arm_from_env() reads the CCG_FAILPOINTS environment
// variable (absent/empty arms nothing) — the per-environment arming the
// CLIs call at startup.
int arm_spec_string(const std::string& spec);
int arm_from_env();

// Install `token` as the calling thread's cancellation context for the
// scope (kDelayMs honors it). The Solver wraps each solve in one.
class ScopedThreadCancel {
 public:
  explicit ScopedThreadCancel(const CancelToken* token);
  ~ScopedThreadCancel();
  ScopedThreadCancel(const ScopedThreadCancel&) = delete;
  ScopedThreadCancel& operator=(const ScopedThreadCancel&) = delete;

 private:
  const CancelToken* prev_;
};

namespace detail {

// Count of currently armed sites; the one load every disarmed hit pays.
// Intentionally lock-free: the disarmed fast path must not take the
// registry mutex (src/common/failpoint.cpp annotates the registry itself
// with CCG_GUARDED_BY). A stale read here only delays when a
// concurrently armed site starts firing — arming synchronizes with the
// *next* hit, which is all the deterministic match_arg selector needs.
extern std::atomic<int> g_num_armed;
// Out-of-line slow path: lookup + counters + action.
void hit(const char* name, std::uint64_t arg);

inline void maybe_hit(const char* name, std::uint64_t arg) {
  if (g_num_armed.load(std::memory_order_relaxed) == 0) return;
  hit(name, arg);
}

}  // namespace detail
}  // namespace fail
}  // namespace ccg

#define CCG_FAILPOINT(name) ::ccg::fail::detail::maybe_hit((name), 0)
#define CCG_FAILPOINT_ARG(name, arg) \
  ::ccg::fail::detail::maybe_hit((name), (arg))
