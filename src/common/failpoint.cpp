#include "common/failpoint.hpp"

#include <chrono>
#include <cstdlib>
#include <map>
#include <new>
#include <stdexcept>
#include <thread>

#include "common/assert.hpp"
#include "common/cancel.hpp"
#include "common/thread_safety.hpp"

namespace ccg::fail {

namespace {

thread_local const CancelToken* t_cancel = nullptr;

struct Site {
  ArmSpec spec;
  int matched = 0;  // matching hits seen since armed (drives skip/times)
  std::int64_t fired = 0;
};

struct Registry {
  Mutex mu;
  std::map<std::string, Site> sites CCG_GUARDED_BY(mu);
};

Registry& registry() {
  static Registry r;
  return r;
}

// Sleep `ms` in 1 ms slices, returning early once the thread's
// CancelToken expires — a delay armed against a deadline must not hold
// the worker for the full duration.
void cooperative_delay(int ms) {
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(ms > 0 ? ms : 0);
  while (std::chrono::steady_clock::now() < end) {
    if (t_cancel != nullptr && t_cancel->expired()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

namespace detail {

std::atomic<int> g_num_armed{0};

void hit(const char* name, std::uint64_t arg) {
  Action action{};
  int delay_ms = 0;
  {
    Registry& r = registry();
    MutexLock lock(r.mu);
    auto it = r.sites.find(name);
    if (it == r.sites.end()) return;
    Site& s = it->second;
    if (s.spec.match_arg.has_value() && *s.spec.match_arg != arg) return;
    const int idx = s.matched++;
    if (idx < s.spec.skip) return;
    if (s.spec.times >= 0 && idx >= s.spec.skip + s.spec.times) return;
    ++s.fired;
    action = s.spec.action;
    delay_ms = s.spec.delay_ms;
  }
  // Act outside the registry lock: the delay would serialize every other
  // site, and the throws unwind through library frames.
  switch (action) {
    case Action::kThrow:
      throw ContractViolation(std::string("failpoint ") + name);
    case Action::kBadAlloc:
      throw std::bad_alloc();
    case Action::kDelayMs:
      cooperative_delay(delay_ms);
      break;
  }
}

}  // namespace detail

void arm(const std::string& name, const ArmSpec& spec) {
  Registry& r = registry();
  MutexLock lock(r.mu);
  auto [it, inserted] = r.sites.insert_or_assign(name, Site{spec, 0, 0});
  (void)it;
  if (inserted) {
    detail::g_num_armed.fetch_add(1, std::memory_order_relaxed);
  }
}

void disarm(const std::string& name) {
  Registry& r = registry();
  MutexLock lock(r.mu);
  if (r.sites.erase(name) > 0) {
    detail::g_num_armed.fetch_sub(1, std::memory_order_relaxed);
  }
}

void disarm_all() {
  Registry& r = registry();
  MutexLock lock(r.mu);
  detail::g_num_armed.fetch_sub(static_cast<int>(r.sites.size()),
                                std::memory_order_relaxed);
  r.sites.clear();
}

std::int64_t fire_count(const std::string& name) {
  Registry& r = registry();
  MutexLock lock(r.mu);
  auto it = r.sites.find(name);
  return it == r.sites.end() ? 0 : it->second.fired;
}

int arm_spec_string(const std::string& spec) {
  int armed = 0;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("failpoint spec entry missing '=': " +
                                  entry);
    }
    const std::string name = entry.substr(0, eq);
    const std::string act = entry.substr(eq + 1);
    ArmSpec s;
    if (act == "throw") {
      s.action = Action::kThrow;
    } else if (act == "badalloc") {
      s.action = Action::kBadAlloc;
    } else if (act.rfind("delay:", 0) == 0) {
      s.action = Action::kDelayMs;
      try {
        s.delay_ms = std::stoi(act.substr(6));
      } catch (const std::exception&) {
        throw std::invalid_argument("failpoint spec bad delay: " + entry);
      }
      if (s.delay_ms < 0) {
        throw std::invalid_argument("failpoint spec bad delay: " + entry);
      }
    } else {
      throw std::invalid_argument("failpoint spec unknown action: " + entry);
    }
    arm(name, s);
    ++armed;
  }
  return armed;
}

int arm_from_env() {
  const char* env = std::getenv("CCG_FAILPOINTS");
  if (env == nullptr || *env == '\0') return 0;
  return arm_spec_string(env);
}

// The thread-cancel scope kDelayMs honors.
ScopedThreadCancel::ScopedThreadCancel(const CancelToken* token)
    : prev_(t_cancel) {
  t_cancel = token;
}

ScopedThreadCancel::~ScopedThreadCancel() { t_cancel = prev_; }

}  // namespace ccg::fail
