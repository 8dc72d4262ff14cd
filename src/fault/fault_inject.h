// Deterministic fault injection for the MM's hardest-to-reach paths.
//
// Named injection sites cover the three failure families the chaos suite
// drives: allocator exhaustion (buddy returns kNoMem), TLB shootdown
// stragglers (a target CPU acks late), and lock-acquisition stalls (widening
// the race windows between a protocol's traversal and its lock acquisition).
//
// Determinism contract: whether a given *check* injects depends only on the
// calling thread's injection RNG stream (seed it with SeedThread) and the
// site's schedule counters. Probabilistic schedules draw from the per-thread
// stream; "fail after N" schedules count checks site-globally, so they are
// deterministic for single-threaded repro runs and merely bounded ("at most
// max_injections, starting no earlier than check N+1") under concurrency.
//
// Always compiled in: an unarmed site costs one relaxed load of a global
// flag (ShouldFail / MaybeStall below).
#ifndef SRC_FAULT_FAULT_INJECT_H_
#define SRC_FAULT_FAULT_INJECT_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace cortenmm {

enum class FaultSite : int {
  kBuddyAllocBlock = 0,   // BuddyAllocator::AllocBlock (multi-frame blocks).
  kBuddyAllocFrame,       // AllocFrame / AllocZeroedFrame (covers PT pages).
  kShootdownStraggler,    // A shootdown target CPU delays before invalidating.
  kAdvLockStall,          // kAdv: between RCU traversal and the CNA acquire.
  kRwLockStall,           // kRw: inside the read-unlock -> write-lock upgrade.
  kSwapDevWrite,          // SwapDevice::WriteNewBlock fails (device full /
                          // write error) — mid-eviction rollback coverage.
  kSwapDevRead,           // SwapDevice::ReadBlock fails (transient IO error)
                          // — swap-in fault paths must surface it cleanly.
  kMagazineRefill,        // Per-CPU magazine refill (depot or buddy) fails —
                          // the fault path must roll back cleanly to kNoMem.
  kPreScrub,              // A pre-scrub batch aborts; the frames stay dirty
                          // and faults must fall back to inline zeroing.
  kSiteCount,
};

const char* FaultSiteName(FaultSite site);

struct FaultConfig {
  // Probabilistic schedule: each check fails with probability num/den, drawn
  // from the calling thread's injection RNG. num == 0 disables this mode.
  uint32_t prob_num = 0;
  uint32_t prob_den = 100;
  // Counted schedule: the site's checks 1..fail_after succeed, every later
  // check injects (until max_injections). kNoCountedSchedule disables it.
  static constexpr uint64_t kNoCountedSchedule = ~0ull;
  uint64_t fail_after = kNoCountedSchedule;
  // Stop injecting at this site after this many injections (0 = unlimited).
  uint64_t max_injections = 0;
  // Stall sites only: injected delay per hit, in CpuRelax() spins.
  uint32_t stall_spins = 0;
};

class FaultInjector {
 public:
  static FaultInjector& Instance();

  // Arms |site| with |config|. Thread-safe against concurrent checks; counters
  // for the site are reset so schedules restart from zero.
  void Enable(FaultSite site, const FaultConfig& config);
  void Disable(FaultSite site);
  // Disarms every site (counters survive so a finished run can report them).
  void DisableAll();
  void ResetCounters();

  // Reseeds the calling thread's injection RNG stream.
  static void SeedThread(uint64_t seed);

  // kNoMem sites: true if this check must fail. Fast path is one relaxed
  // atomic load when nothing is armed anywhere.
  bool ShouldFail(FaultSite site) {
    if (!any_enabled_.load(std::memory_order_relaxed)) {
      return false;
    }
    return ShouldFailSlow(site);
  }

  // Stall sites: spins in place for the configured delay when the site is
  // armed and the schedule fires.
  void MaybeStall(FaultSite site) {
    if (!any_enabled_.load(std::memory_order_relaxed)) {
      return;
    }
    MaybeStallSlow(site);
  }

  // Rollback accounting. A path that saw an injected failure and returned the
  // address space to its pre-op state calls NoteRolledBack(); one that
  // absorbed the failure without needing any unwind (e.g. a fallback covering
  // page) calls NoteSurvived(). Both attribute to the calling thread's most
  // recently injected site.
  static void NoteSurvived();
  static void NoteRolledBack();

  uint64_t Checked(FaultSite site) const;
  uint64_t Injected(FaultSite site) const;
  uint64_t Survived(FaultSite site) const;
  uint64_t RolledBack(FaultSite site) const;
  // Total injections across all sites (chaos tests assert coverage with this).
  uint64_t TotalInjected() const;

  // {"site":{"checked":N,"injected":N,"survived":N,"rolled_back":N},...} for
  // every site with at least one check; "{}" when none.
  std::string DumpJson() const;

 private:
  struct SiteState {
    std::atomic<bool> enabled{false};
    std::atomic<uint32_t> prob_num{0};
    std::atomic<uint32_t> prob_den{100};
    std::atomic<uint64_t> fail_after{FaultConfig::kNoCountedSchedule};
    std::atomic<uint64_t> max_injections{0};
    std::atomic<uint32_t> stall_spins{0};

    std::atomic<uint64_t> checked{0};
    std::atomic<uint64_t> injected{0};
    std::atomic<uint64_t> survived{0};
    std::atomic<uint64_t> rolled_back{0};
  };

  bool ShouldFailSlow(FaultSite site);
  void MaybeStallSlow(FaultSite site);
  bool ScheduleFires(SiteState& state);

  std::atomic<bool> any_enabled_{false};
  SiteState sites_[static_cast<int>(FaultSite::kSiteCount)];
};

}  // namespace cortenmm

#endif  // SRC_FAULT_FAULT_INJECT_H_
