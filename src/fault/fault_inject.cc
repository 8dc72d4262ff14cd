#include "src/fault/fault_inject.h"

#include <sstream>

#include "src/common/backoff.h"
#include "src/common/rng.h"

namespace cortenmm {

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kBuddyAllocBlock:
      return "buddy_alloc_block";
    case FaultSite::kBuddyAllocFrame:
      return "buddy_alloc_frame";
    case FaultSite::kShootdownStraggler:
      return "shootdown_straggler";
    case FaultSite::kAdvLockStall:
      return "adv_lock_stall";
    case FaultSite::kRwLockStall:
      return "rw_lock_stall";
    case FaultSite::kSwapDevWrite:
      return "swap_dev_write";
    case FaultSite::kSwapDevRead:
      return "swap_dev_read";
    case FaultSite::kMagazineRefill:
      return "magazine_refill";
    case FaultSite::kPreScrub:
      return "prescrub";
    case FaultSite::kSiteCount:
      break;
  }
  return "unknown";
}

namespace {

// Per-thread injection RNG. Lazily seeded from a process-wide counter so
// unseeded threads still get distinct deterministic streams; tests that need
// exact repro call SeedThread explicitly.
struct ThreadFaultState {
  Rng rng;
  // The site of the last injection this thread observed, for attributing
  // NoteSurvived / NoteRolledBack without threading a token through every
  // Result<> return path.
  int last_injected_site = -1;

  ThreadFaultState() : rng(NextThreadSeed()) {}

  static uint64_t NextThreadSeed() {
    static std::atomic<uint64_t> counter{0};
    uint64_t state = 0xfa017ull ^ counter.fetch_add(1, std::memory_order_relaxed);
    return SplitMix64(state);
  }
};

ThreadFaultState& TlsState() {
  thread_local ThreadFaultState state;
  return state;
}

}  // namespace

FaultInjector& FaultInjector::Instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::Enable(FaultSite site, const FaultConfig& config) {
  SiteState& state = sites_[static_cast<int>(site)];
  state.prob_num.store(config.prob_num, std::memory_order_relaxed);
  state.prob_den.store(config.prob_den == 0 ? 1 : config.prob_den,
                       std::memory_order_relaxed);
  state.fail_after.store(config.fail_after, std::memory_order_relaxed);
  state.max_injections.store(config.max_injections, std::memory_order_relaxed);
  state.stall_spins.store(config.stall_spins, std::memory_order_relaxed);
  state.checked.store(0, std::memory_order_relaxed);
  state.injected.store(0, std::memory_order_relaxed);
  state.survived.store(0, std::memory_order_relaxed);
  state.rolled_back.store(0, std::memory_order_relaxed);
  state.enabled.store(true, std::memory_order_release);
  any_enabled_.store(true, std::memory_order_release);
}

void FaultInjector::Disable(FaultSite site) {
  sites_[static_cast<int>(site)].enabled.store(false, std::memory_order_release);
  for (const SiteState& state : sites_) {
    if (state.enabled.load(std::memory_order_acquire)) {
      return;
    }
  }
  any_enabled_.store(false, std::memory_order_release);
}

void FaultInjector::DisableAll() {
  for (SiteState& state : sites_) {
    state.enabled.store(false, std::memory_order_release);
  }
  any_enabled_.store(false, std::memory_order_release);
}

void FaultInjector::ResetCounters() {
  for (SiteState& state : sites_) {
    state.checked.store(0, std::memory_order_relaxed);
    state.injected.store(0, std::memory_order_relaxed);
    state.survived.store(0, std::memory_order_relaxed);
    state.rolled_back.store(0, std::memory_order_relaxed);
  }
}

void FaultInjector::SeedThread(uint64_t seed) {
  TlsState().rng = Rng(seed);
  TlsState().last_injected_site = -1;
}

bool FaultInjector::ScheduleFires(SiteState& state) {
  uint64_t check = state.checked.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t cap = state.max_injections.load(std::memory_order_relaxed);
  if (cap != 0 && state.injected.load(std::memory_order_relaxed) >= cap) {
    return false;
  }
  uint64_t after = state.fail_after.load(std::memory_order_relaxed);
  if (after != FaultConfig::kNoCountedSchedule && check > after) {
    return true;
  }
  uint32_t num = state.prob_num.load(std::memory_order_relaxed);
  if (num != 0 &&
      TlsState().rng.Chance(num, state.prob_den.load(std::memory_order_relaxed))) {
    return true;
  }
  return false;
}

bool FaultInjector::ShouldFailSlow(FaultSite site) {
  SiteState& state = sites_[static_cast<int>(site)];
  if (!state.enabled.load(std::memory_order_acquire)) {
    return false;
  }
  if (!ScheduleFires(state)) {
    return false;
  }
  state.injected.fetch_add(1, std::memory_order_relaxed);
  TlsState().last_injected_site = static_cast<int>(site);
  return true;
}

void FaultInjector::MaybeStallSlow(FaultSite site) {
  SiteState& state = sites_[static_cast<int>(site)];
  if (!state.enabled.load(std::memory_order_acquire)) {
    return;
  }
  if (!ScheduleFires(state)) {
    return;
  }
  state.injected.fetch_add(1, std::memory_order_relaxed);
  // A stall has nothing to roll back; it survives by construction.
  state.survived.fetch_add(1, std::memory_order_relaxed);
  uint32_t spins = state.stall_spins.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < spins; ++i) {
    CpuRelax();
  }
}

void FaultInjector::NoteSurvived() {
  int site = TlsState().last_injected_site;
  if (site < 0) {
    return;
  }
  Instance().sites_[site].survived.fetch_add(1, std::memory_order_relaxed);
  TlsState().last_injected_site = -1;
}

void FaultInjector::NoteRolledBack() {
  int site = TlsState().last_injected_site;
  if (site < 0) {
    return;
  }
  Instance().sites_[site].rolled_back.fetch_add(1, std::memory_order_relaxed);
  TlsState().last_injected_site = -1;
}

uint64_t FaultInjector::Checked(FaultSite site) const {
  return sites_[static_cast<int>(site)].checked.load(std::memory_order_relaxed);
}
uint64_t FaultInjector::Injected(FaultSite site) const {
  return sites_[static_cast<int>(site)].injected.load(std::memory_order_relaxed);
}
uint64_t FaultInjector::Survived(FaultSite site) const {
  return sites_[static_cast<int>(site)].survived.load(std::memory_order_relaxed);
}
uint64_t FaultInjector::RolledBack(FaultSite site) const {
  return sites_[static_cast<int>(site)].rolled_back.load(std::memory_order_relaxed);
}

uint64_t FaultInjector::TotalInjected() const {
  uint64_t total = 0;
  for (const SiteState& state : sites_) {
    total += state.injected.load(std::memory_order_relaxed);
  }
  return total;
}

std::string FaultInjector::DumpJson() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (int i = 0; i < static_cast<int>(FaultSite::kSiteCount); ++i) {
    const SiteState& state = sites_[i];
    uint64_t checked = state.checked.load(std::memory_order_relaxed);
    if (checked == 0) {
      continue;
    }
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\"" << FaultSiteName(static_cast<FaultSite>(i)) << "\":{"
       << "\"checked\":" << checked
       << ",\"injected\":" << state.injected.load(std::memory_order_relaxed)
       << ",\"survived\":" << state.survived.load(std::memory_order_relaxed)
       << ",\"rolled_back\":" << state.rolled_back.load(std::memory_order_relaxed)
       << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace cortenmm
