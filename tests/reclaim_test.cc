// Reclaim subsystem tests: watermarks, the second-chance clock, per-tenant
// resident limits with ring backpressure, fault-time throttling, THP fallback
// under pressure, SwapOut x THP under injected device faults, and background
// reclaim racing mutators while the injector fires.
//
// NOTE: these run in every preset — deliberately NOT registered under the
// `chaos` ctest label, so the tsan preset (which excludes -LE chaos) still
// exercises the reclaimer-vs-mutator races.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/backing.h"
#include "src/core/vm_space.h"
#include "src/fault/fault_inject.h"
#include "src/pmm/buddy.h"
#include "src/pmm/page_desc.h"
#include "src/pmm/phys_mem.h"
#include "src/reclaim/reclaim.h"
#include "src/sim/corten_vm.h"
#include "src/sync/rcu.h"
#include "src/tlb/shootdown.h"
#include "src/verif/wf_checker.h"

namespace cortenmm {
namespace {

uint64_t Count(Counter c) { return GlobalStats().Total(c); }

// Clears the `young` bit on every frame descriptor, making every resident
// exclusive-anon page immediately evictable. Tests use this instead of
// driving the clock hand through two full sweeps of the (large) test arena.
void AgeAllFrames() {
  PhysMem& mem = PhysMem::Instance();
  for (Pfn pfn = 1; pfn < mem.num_frames(); ++pfn) {
    mem.Descriptor(pfn).young.store(false, std::memory_order_relaxed);
  }
}

void Quiesce() {
  TlbSystem::Instance().DrainAll();
  Rcu::Instance().DrainAll();
  BuddyAllocator::Instance().FlushCpuCaches();
}

// Saves/restores the global watermarks and guarantees the reclaimer and the
// injector are off again at test exit, whatever the test body did.
class ReclaimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_low_ = BuddyAllocator::Instance().LowWatermark();
    saved_min_ = BuddyAllocator::Instance().MinWatermark();
  }
  void TearDown() override {
    ReclaimSystem::Instance().Stop();
    FaultInjector::Instance().DisableAll();
    BuddyAllocator::Instance().SetWatermarks(saved_low_, saved_min_);
    Quiesce();
  }

  uint64_t saved_low_ = 0;
  uint64_t saved_min_ = 0;
};

TEST_F(ReclaimTest, WatermarkDefaultsAndOverride) {
  BuddyAllocator& buddy = BuddyAllocator::Instance();
  EXPECT_EQ(buddy.LowWatermark(), buddy.TotalFrameCount() / 16);
  EXPECT_EQ(buddy.MinWatermark(), buddy.TotalFrameCount() / 64);
  EXPECT_FALSE(buddy.BelowLow());
  EXPECT_FALSE(buddy.BelowMin());

  buddy.SetWatermarks(123, 45);
  EXPECT_EQ(buddy.LowWatermark(), 123u);
  EXPECT_EQ(buddy.MinWatermark(), 45u);
}

TEST_F(ReclaimTest, StartStopLifecycleAndTenantRegistry) {
  ReclaimSystem& reclaim = ReclaimSystem::Instance();
  EXPECT_FALSE(reclaim.running());

  reclaim.Start();
  reclaim.Start();  // Idempotent.
  EXPECT_TRUE(reclaim.running());
  size_t before = reclaim.TenantCount();
  {
    VmSpace space{AddrSpace::Options{}};
    EXPECT_EQ(reclaim.TenantCount(), before + 1);
  }
  EXPECT_EQ(reclaim.TenantCount(), before);

  reclaim.Stop();
  reclaim.Stop();  // Idempotent.
  EXPECT_FALSE(reclaim.running());
  {
    // Spaces created while stopped never register.
    VmSpace space{AddrSpace::Options{}};
    EXPECT_EQ(reclaim.TenantCount(), 0u);
  }
}

TEST_F(ReclaimTest, ClockEvictsColdPagesAndTheyFaultBack) {
  ScopedReclaim reclaim;
  VmSpace space{AddrSpace::Options{}};
  constexpr uint64_t kPages = 128;
  Result<Vaddr> va = space.MmapAnon(kPages << kPageBits, Perm::RW());
  ASSERT_TRUE(va.ok());
  for (uint64_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(space.HandleFault(*va + (p << kPageBits), Access::kWrite).ok());
  }
  ASSERT_EQ(space.addr_space().ResidentPagesFast(), kPages);

  uint64_t blocks_before = SwapDevice::Instance().blocks_in_use();
  // Once cold, a targeted pass moves every page of this tenant to swap.
  AgeAllFrames();
  uint64_t evicted = ReclaimSystem::Instance().ReclaimPages(
      kPages, &space.addr_space());
  EXPECT_EQ(evicted, kPages);
  EXPECT_EQ(space.addr_space().ResidentPagesFast(), 0u);
  EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_before + kPages);
  EXPECT_GE(Count(Counter::kReclaimScannedFrames), kPages);

  // Every page faults back in (slow path via the swap device) and releases
  // its block.
  for (uint64_t p = 0; p < kPages; ++p) {
    EXPECT_TRUE(space.HandleFault(*va + (p << kPageBits), Access::kRead).ok());
  }
  EXPECT_EQ(space.addr_space().ResidentPagesFast(), kPages);
  EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_before);
}

TEST_F(ReclaimTest, YoungBitGivesSecondChance) {
  ScopedReclaim reclaim;
  VmSpace space{AddrSpace::Options{}};
  Result<Vaddr> va = space.MmapAnon(kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(space.HandleFault(*va, Access::kWrite).ok());

  AgeAllFrames();
  // A fault re-references the page: it must survive the next pass.
  ASSERT_TRUE(space.HandleFault(*va, Access::kRead).ok());
  // max_scan of num_frames-1 is exactly one full clock revolution: every
  // descriptor visited exactly once (the hand ranges over [1, frames-1]).
  const uint64_t kOneSweep = PhysMem::Instance().num_frames() - 1;
  uint64_t evicted = ReclaimSystem::Instance().ReclaimPages(
      1, &space.addr_space(), /*max_scan=*/kOneSweep);
  // First sweep: the page's young bit is consumed, nothing evicted yet.
  EXPECT_EQ(evicted, 0u);
  EXPECT_EQ(space.addr_space().ResidentPagesFast(), 1u);
  // Second sweep: now cold, now evicted.
  evicted = ReclaimSystem::Instance().ReclaimPages(
      1, &space.addr_space(), /*max_scan=*/kOneSweep);
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(space.addr_space().ResidentPagesFast(), 0u);
}

TEST_F(ReclaimTest, ResidentLimitDegradesFaultsNotFails) {
  ScopedReclaim reclaim;
  VmSpace space{AddrSpace::Options{}};
  constexpr uint64_t kLimit = 64;
  constexpr uint64_t kPages = 128;
  Result<Vaddr> va = space.MmapAnon(kPages << kPageBits, Perm::RW());
  ASSERT_TRUE(va.ok());
  ReclaimSystem::Instance().SetResidentLimit(&space, kLimit);
  EXPECT_EQ(ReclaimSystem::Instance().ResidentLimit(&space), kLimit);

  uint64_t limit_hits_before = Count(Counter::kReclaimLimitHits);
  for (uint64_t p = 0; p < kPages; ++p) {
    if (p > 0 && p % 16 == 0) {
      AgeAllFrames();  // Keep the tenant's own pages evictable as it grows.
    }
    // Over the limit the fault must still succeed — degraded, never kNoMem.
    EXPECT_TRUE(space.HandleFault(*va + (p << kPageBits), Access::kWrite).ok());
  }
  EXPECT_GT(Count(Counter::kReclaimLimitHits), limit_hits_before);

  // Once everything is cold, a targeted pass drives the tenant down to its
  // limit. The fault-time passes are scan-bounded, so they may only have made
  // partial progress — though with the magazine layer's LIFO frame reuse the
  // tenant's pages sit dense in the PFN space and the bounded passes often
  // hold the line at exactly kLimit by themselves.
  AgeAllFrames();
  uint64_t resident = space.addr_space().ResidentPagesFast();
  if (resident > kLimit) {
    ReclaimSystem::Instance().ReclaimPages(resident - kLimit,
                                           &space.addr_space());
  }
  EXPECT_LE(space.addr_space().ResidentPagesFast(), kLimit);
}

TEST_F(ReclaimTest, RingSubmitBouncesOverLimitTenant) {
  ScopedReclaim reclaim;
  CortenVm mm{AddrSpace::Options{}};
  constexpr uint64_t kLimit = 32;
  Result<Vaddr> va = mm.vm().MmapAnon(2 * kLimit << kPageBits, Perm::RW());
  ASSERT_TRUE(va.ok());
  ReclaimSystem::Instance().SetResidentLimit(&mm.vm(), kLimit);

  // Faults 1..kLimit stay under the limit: no bounce.
  for (uint64_t p = 0; p < kLimit; ++p) {
    ASSERT_TRUE(mm.vm().HandleFault(*va + (p << kPageBits), Access::kWrite).ok());
  }
  ASSERT_EQ(mm.vm().addr_space().ResidentPagesFast(), kLimit);

  // At the limit a resident-growing submission is refused at the frontend.
  uint64_t rejects_before = Count(Counter::kRingLimitRejects);
  MmSqe fault;
  fault.op = MmOpCode::kFault;
  fault.va = *va + (kLimit << kPageBits);
  fault.access = Access::kWrite;
  EXPECT_FALSE(mm.Submit(fault));
  EXPECT_EQ(Count(Counter::kRingLimitRejects), rejects_before + 1);

  // Non-growing ops pass through the same ring untouched.
  MmSqe nop;
  nop.op = MmOpCode::kNop;
  nop.user_data = 77;
  EXPECT_TRUE(mm.Submit(nop));
  mm.DrainBarrier();
  MmCqe cqe;
  ASSERT_TRUE(mm.Reap(&cqe));
  EXPECT_EQ(cqe.user_data, 77u);
  EXPECT_EQ(cqe.err, ErrCode::kOk);

  // The bounced fault degrades to the synchronous path and succeeds. The
  // fault-time reclaim pass is scan-bounded, so in this large arena the RSS
  // may transiently sit one page over the limit — never unboundedly.
  AgeAllFrames();
  EXPECT_TRUE(mm.vm().HandleFault(fault.va, Access::kWrite).ok());
  EXPECT_LE(mm.vm().addr_space().ResidentPagesFast(), kLimit + 1);
}

TEST_F(ReclaimTest, PressureWakesKswapdAndThrottlesFaults) {
  // Start first (default watermarks, no pressure yet): only spaces created
  // while the reclaimer runs are registered tenants.
  ReclaimConfig config;
  config.throttle_us = 50;
  ScopedReclaim reclaim(config);

  // A pool of cold evictable pages for the reclaimers to find.
  VmSpace cold{AddrSpace::Options{}};
  constexpr uint64_t kColdPages = 256;
  Result<Vaddr> cold_va = cold.MmapAnon(kColdPages << kPageBits, Perm::RW());
  ASSERT_TRUE(cold_va.ok());
  for (uint64_t p = 0; p < kColdPages; ++p) {
    ASSERT_TRUE(cold.HandleFault(*cold_va + (p << kPageBits), Access::kWrite).ok());
  }
  AgeAllFrames();

  // Now put the machine under both watermarks: free is below MIN by 16
  // frames, below LOW by 64 — the cold pool more than covers both deficits.
  uint64_t free = BuddyAllocator::Instance().FreeFrameCount();
  BuddyAllocator::Instance().SetWatermarks(free + 64, free + 16);

  uint64_t wakeups_before = Count(Counter::kReclaimWakeups);
  uint64_t evicted_before = Count(Counter::kReclaimPagesEvicted);

  // One faulting tenant: its allocations fire the pressure hook, waking
  // kswapd, which evicts the cold pool until the free count recovers.
  VmSpace space{AddrSpace::Options{}};
  Result<Vaddr> va = space.MmapAnon(4 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  for (int p = 0; p < 4; ++p) {
    EXPECT_TRUE(space.HandleFault(*va + (p << kPageBits), Access::kWrite).ok());
  }
  EXPECT_GT(Count(Counter::kReclaimWakeups), wakeups_before);

  // Background + direct reclaim restore the free count above MIN.
  for (int spin = 0; spin < 200 && BuddyAllocator::Instance().BelowMin(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(BuddyAllocator::Instance().BelowMin());
  EXPECT_GT(Count(Counter::kReclaimPagesEvicted), evicted_before);
}

TEST_F(ReclaimTest, FaultsThrottleBoundedBelowMin) {
  ReclaimConfig config;
  config.throttle_us = 50;
  config.max_throttle_rounds = 3;
  ScopedReclaim reclaim(config);

  VmSpace space{AddrSpace::Options{}};
  Result<Vaddr> va = space.MmapAnon(kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());

  // A deficit nothing can clear (there is no cold pool at all): every fault
  // runs exactly max_throttle_rounds bounded throttle rounds, then proceeds
  // anyway — degraded to slow, never blocked forever, never failed.
  uint64_t free = BuddyAllocator::Instance().FreeFrameCount();
  BuddyAllocator::Instance().SetWatermarks(free + 4096, free + 4096);
  uint64_t throttles_before = Count(Counter::kReclaimThrottles);
  EXPECT_TRUE(space.HandleFault(*va, Access::kWrite).ok());
  EXPECT_EQ(Count(Counter::kReclaimThrottles),
            throttles_before + config.max_throttle_rounds);
}

TEST_F(ReclaimTest, HugeFaultInFallsBackTo4kUnderPressure) {
  AddrSpace::Options options;
  options.huge_pages = true;
  VmSpace space{options};
  Result<Vaddr> va = space.MmapAnon(2 * kHugePageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(IsAligned(*va, kHugePageSize));

  // Below LOW (but not MIN, so no throttle sleeps): THP fault-in is off.
  uint64_t free = BuddyAllocator::Instance().FreeFrameCount();
  ReclaimConfig config;
  config.low_watermark = free + 1024;
  config.min_watermark = 1;
  ScopedReclaim reclaim(config);

  uint64_t suppressed_before = Count(Counter::kReclaimHugeSuppressed);
  ASSERT_TRUE(space.HandleFault(*va, Access::kWrite).ok());
  EXPECT_EQ(space.addr_space().ResidentPagesFast(), 1u);  // 4 KiB, not 512.
  EXPECT_GT(Count(Counter::kReclaimHugeSuppressed), suppressed_before);

  // Pressure gone: the second slot goes huge again.
  BuddyAllocator::Instance().SetWatermarks(saved_low_, saved_min_);
  ASSERT_TRUE(space.HandleFault(*va + kHugePageSize, Access::kWrite).ok());
  EXPECT_EQ(space.addr_space().ResidentPagesFast(), 1u + 512u);
}

TEST(FusedBatchTest, DeferredFreeVaFlushesAtThreshold) {
  CortenVm mm{AddrSpace::Options{}};
  // 40 single-page regions > the 16-entry deferred-FreeVa bound: the fused
  // batch must flush mid-run (closing and reopening its transaction) instead
  // of growing the deferred list without bound.
  constexpr int kRegions = 40;
  std::vector<MmSqe> sqes(kRegions);
  std::vector<MmCqe> cqes(kRegions);
  for (int i = 0; i < kRegions; ++i) {
    Result<Vaddr> va = mm.vm().MmapAnon(kPageSize, Perm::RW());
    ASSERT_TRUE(va.ok());
    ASSERT_TRUE(mm.vm().HandleFault(*va, Access::kWrite).ok());
    sqes[i].op = MmOpCode::kMunmap;
    sqes[i].va = *va;
    sqes[i].len = kPageSize;
    sqes[i].user_data = i;
    cqes[i].user_data = i;
  }
  uint64_t flushes_before = GlobalStats().Total(Counter::kFusedVaFlushes);
  mm.ExecuteBatch(sqes.data(), cqes.data(), kRegions);
  for (int i = 0; i < kRegions; ++i) {
    EXPECT_EQ(cqes[i].err, ErrCode::kOk) << "op " << i;
  }
  EXPECT_GT(GlobalStats().Total(Counter::kFusedVaFlushes), flushes_before);
  EXPECT_EQ(mm.vm().addr_space().ResidentPagesFast(), 0u);
}

// Satellite: SwapOut of a 2 MiB huge run must split the leaf and stop
// cleanly — no stranded frames, no leaked swap blocks — when the swap-device
// write site fires mid-eviction.
TEST_F(ReclaimTest, SwapOutHugeRunRollsBackOnDeviceWriteFault) {
  Quiesce();
  uint64_t baseline_free = BuddyAllocator::Instance().FreeFrameCount();
  uint64_t blocks_before = SwapDevice::Instance().blocks_in_use();
  {
    AddrSpace::Options options;
    options.huge_pages = true;
    VmSpace space{options};
    Result<Vaddr> va = space.MmapAnon(kHugePageSize, Perm::RW());
    ASSERT_TRUE(va.ok());
    ASSERT_TRUE(space.HandleFault(*va, Access::kWrite).ok());
    ASSERT_EQ(space.addr_space().ResidentPagesFast(), 512u);

    // The 9th block write fails, exactly once, mid-eviction.
    FaultConfig config;
    config.fail_after = 8;
    config.max_injections = 1;
    FaultInjector::Instance().Enable(FaultSite::kSwapDevWrite, config);

    uint64_t splits_before = Count(Counter::kHugeSplits);
    Result<uint64_t> swapped = space.SwapOut(*va, kHugePageSize);
    FaultInjector::Instance().DisableAll();

    // Partial progress, definite result: the huge leaf was split, the first
    // 8 pages are on swap, the victim of the failed write stayed resident.
    ASSERT_TRUE(swapped.ok());
    EXPECT_EQ(*swapped, 8u);
    EXPECT_GT(Count(Counter::kHugeSplits), splits_before);
    EXPECT_EQ(space.addr_space().ResidentPagesFast(), 512u - 8u);
    EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_before + 8);
    EXPECT_GE(FaultInjector::Instance().TotalInjected(), 1u);

    // The swapped pages fault back in; their blocks are released.
    for (uint64_t p = 0; p < 8; ++p) {
      EXPECT_TRUE(space.HandleFault(*va + (p << kPageBits), Access::kRead).ok());
    }
    EXPECT_EQ(space.addr_space().ResidentPagesFast(), 512u);
    EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_before);

    WfReport report = CheckWellFormed(space.addr_space());
    EXPECT_TRUE(report.ok) << report.first_error;
  }
  // No frame stranded by the interrupted eviction.
  LeakReport leaks = CheckFrameLeaks(baseline_free);
  EXPECT_TRUE(leaks.ok) << "leaked " << leaks.leaked << " frames";
  EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_before);
}

// The chaos axis: background + direct reclaim race mutator threads while the
// injector fires swap-device and allocator faults. Every operation must get
// a definite status and no frame may leak. Runs under the tsan preset too
// (deliberately not labelled `chaos`).
TEST_F(ReclaimTest, ReclaimRacesMutatorsUnderFaultInjection) {
  Quiesce();
  uint64_t baseline_free = BuddyAllocator::Instance().FreeFrameCount();
  {
    // Permanent pressure: LOW sits above the current free count for the whole
    // run, so kswapd continuously sweeps while the mutators fault.
    ReclaimConfig config;
    config.low_watermark = BuddyAllocator::Instance().FreeFrameCount() + 512;
    config.min_watermark = 16;
    config.bg_batch = 32;
    ScopedReclaim reclaim(config);

    FaultConfig flaky;
    flaky.prob_num = 3;
    flaky.prob_den = 100;
    FaultInjector::Instance().Enable(FaultSite::kSwapDevWrite, flaky);
    FaultInjector::Instance().Enable(FaultSite::kSwapDevRead, flaky);
    FaultConfig nomem;
    nomem.prob_num = 2;
    nomem.prob_den = 100;
    FaultInjector::Instance().Enable(FaultSite::kBuddyAllocFrame, nomem);

    AddrSpace::Options options;
    options.huge_pages = true;
    auto space = std::make_unique<VmSpace>(options);

    const int kThreads = 4;
    const int kIters = 120;
    std::atomic<uint64_t> ok_ops{0};
    std::atomic<uint64_t> indefinite{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        BindThisThreadToCpu(t);
        Rng rng(0xcafe + t);
        for (int i = 0; i < kIters; ++i) {
          uint64_t pages = 8 + rng.Below(56);
          Result<Vaddr> va = space->MmapAnon(pages << kPageBits, Perm::RW());
          if (!va.ok()) {
            continue;  // kNoMem under injection is a definite, legal answer.
          }
          for (uint64_t p = 0; p < pages; ++p) {
            VoidResult r =
                space->HandleFault(*va + (p << kPageBits), Access::kWrite);
            // Definite statuses only: success, allocator exhaustion, or a
            // failed swap-in (kAgain) — anything else is a contract breach.
            if (r.ok()) {
              ok_ops.fetch_add(1, std::memory_order_relaxed);
            } else if (r.error() != ErrCode::kNoMem &&
                       r.error() != ErrCode::kAgain) {
              indefinite.fetch_add(1, std::memory_order_relaxed);
            }
          }
          if (rng.Chance(1, 8)) {
            std::unique_ptr<VmSpace> child = space->Fork();
            if (child != nullptr) {
              (void)child->HandleFault(*va, Access::kWrite);
            }
          }
          if (rng.Chance(1, 4)) {
            AgeAllFrames();  // Keep feeding the clock cold candidates.
          }
          (void)space->Munmap(*va, pages << kPageBits);
        }
      });
    }
    for (std::thread& w : workers) {
      w.join();
    }
    FaultInjector::Instance().DisableAll();

    EXPECT_GT(ok_ops.load(), 0u);
    EXPECT_EQ(indefinite.load(), 0u);
    EXPECT_GT(FaultInjector::Instance().TotalInjected(), 0u)
        << FaultInjector::Instance().DumpJson();
    EXPECT_GT(Count(Counter::kReclaimPagesEvicted), 0u);

    WfReport report = CheckWellFormed(space->addr_space());
    EXPECT_TRUE(report.ok) << report.first_error;
    // Scope exit: the space dies first (deregistering, waiting out any
    // reclaimer pin), then ScopedReclaim stops the daemons.
  }
  BuddyAllocator::Instance().SetWatermarks(saved_low_, saved_min_);
  LeakReport leaks = CheckFrameLeaks(baseline_free);
  EXPECT_TRUE(leaks.ok) << "leaked " << leaks.leaked << " frames (baseline "
                        << leaks.baseline_free << ", now "
                        << leaks.current_free << ")";
}

}  // namespace
}  // namespace cortenmm
