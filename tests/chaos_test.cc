// Chaos-mode invariant testing: multi-threaded mmap/fault/mprotect/munmap/fork
// traffic while the fault injector forces allocator exhaustion, shootdown
// stragglers, and lock-acquisition stalls. The MM must degrade gracefully —
// operations may fail with kNoMem, but nothing may crash, the page table must
// stay well-formed, and every frame allocated during the run must be either
// mapped or back in the buddy allocator when the spaces are destroyed.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/topology.h"
#include "src/core/vm_space.h"
#include "src/fault/fault_inject.h"
#include "src/pmm/buddy.h"
#include "src/sim/corten_vm.h"
#include "src/sync/rcu.h"
#include "src/tlb/shootdown.h"
#include "src/verif/wf_checker.h"

namespace cortenmm {
namespace {

enum class ChaosSchedule {
  kNoMem,        // 2% of buddy allocations fail.
  kNoMemBurst,   // Allocations 201..264 (site-globally) fail, then recover.
  kStraggler,    // 10% of shootdown targets stall before invalidating.
  kLockStall,    // 10% of lock acquisitions stall in their widest race window.
  kMagRefill,    // 5% of magazine refills fail mid-fault; 20% of pre-scrub
                 // batches abort. Faults must roll back to kNoMem cleanly and
                 // fall back to inline zeroing, with zero frame leaks.
  kMixed,        // Everything at once, lighter.
};

const char* ScheduleName(ChaosSchedule schedule) {
  switch (schedule) {
    case ChaosSchedule::kNoMem:
      return "NoMem";
    case ChaosSchedule::kNoMemBurst:
      return "NoMemBurst";
    case ChaosSchedule::kStraggler:
      return "Straggler";
    case ChaosSchedule::kLockStall:
      return "LockStall";
    case ChaosSchedule::kMagRefill:
      return "MagRefill";
    case ChaosSchedule::kMixed:
      return "Mixed";
  }
  return "Unknown";
}

bool InjectsNoMem(ChaosSchedule schedule) {
  return schedule == ChaosSchedule::kNoMem || schedule == ChaosSchedule::kNoMemBurst ||
         schedule == ChaosSchedule::kMagRefill || schedule == ChaosSchedule::kMixed;
}

void ArmSchedule(ChaosSchedule schedule) {
  FaultInjector& inj = FaultInjector::Instance();
  FaultConfig nomem;
  nomem.prob_num = 2;
  nomem.prob_den = 100;
  FaultConfig stall;
  stall.prob_num = 10;
  stall.prob_den = 100;
  stall.stall_spins = 200;
  switch (schedule) {
    case ChaosSchedule::kNoMem:
      inj.Enable(FaultSite::kBuddyAllocFrame, nomem);
      inj.Enable(FaultSite::kBuddyAllocBlock, nomem);
      break;
    case ChaosSchedule::kNoMemBurst: {
      FaultConfig burst;
      burst.fail_after = 200;
      burst.max_injections = 64;
      inj.Enable(FaultSite::kBuddyAllocFrame, burst);
      break;
    }
    case ChaosSchedule::kStraggler:
      inj.Enable(FaultSite::kShootdownStraggler, stall);
      break;
    case ChaosSchedule::kLockStall:
      inj.Enable(FaultSite::kAdvLockStall, stall);
      inj.Enable(FaultSite::kRwLockStall, stall);
      break;
    case ChaosSchedule::kMagRefill: {
      FaultConfig refill;
      refill.prob_num = 5;
      refill.prob_den = 100;
      FaultConfig scrub;
      scrub.prob_num = 20;
      scrub.prob_den = 100;
      inj.Enable(FaultSite::kMagazineRefill, refill);
      inj.Enable(FaultSite::kPreScrub, scrub);
      break;
    }
    case ChaosSchedule::kMixed: {
      FaultConfig light_nomem = nomem;
      light_nomem.prob_num = 1;
      FaultConfig light_stall = stall;
      light_stall.prob_num = 5;
      light_stall.stall_spins = 100;
      inj.Enable(FaultSite::kBuddyAllocFrame, light_nomem);
      inj.Enable(FaultSite::kBuddyAllocBlock, light_nomem);
      inj.Enable(FaultSite::kMagazineRefill, light_nomem);
      inj.Enable(FaultSite::kShootdownStraggler, light_stall);
      inj.Enable(FaultSite::kAdvLockStall, light_stall);
      inj.Enable(FaultSite::kRwLockStall, light_stall);
      break;
    }
  }
}

struct ChaosParam {
  Protocol protocol;
  ChaosSchedule schedule;
  // Gathered shootdowns must hold the invariants under every TLB policy —
  // LATR in particular, where a batch's dead frames sit in a deferred entry
  // until the last lazy ack (exactly the window the leak checker watches).
  TlbPolicy tlb_policy = TlbPolicy::kEarlyAck;
  // Huge axis: the space faults in 2 MiB leaves where it can, so every
  // schedule also exercises order-9 allocation failure (fallback ladder),
  // boundary splits under munmap/mprotect, and huge-run reclamation.
  bool huge = false;
  // Fault-around axis: speculative neighbour mapping inside the fault
  // transaction, so refill failures also hit mid-speculation (the primary
  // fault already committed; the walk must simply end, leaking nothing).
  uint32_t fault_around = 0;
  // NUMA axis: workers stripe across the topology's nodes instead of packing
  // node 0, so allocation, rollback, and deferred reclamation all cross node
  // boundaries while faults are injected. The leak gate then also proves no
  // frame ended up on a foreign arena's free list (misplaced_home).
  bool numa = false;
};

class ChaosTest : public ::testing::TestWithParam<ChaosParam> {
 protected:
  void TearDown() override {
    FaultInjector::Instance().DisableAll();
    FaultInjector::Instance().ResetCounters();
  }
};

int ChaosThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw >= 4 ? 4 : 2;
}

// One worker's traffic: mmap a small region, fault it in, occasionally
// reprotect or fork, then unmap. Every operation is allowed to fail with
// kNoMem (that is the point); what is not allowed is a crash or a lost frame.
void ChaosWorker(VmSpace* space, int tid, CpuId cpu, int iters,
                 std::atomic<uint64_t>* successes) {
  BindThisThreadToCpu(cpu);
  FaultInjector::SeedThread(0x5eedull ^ static_cast<uint64_t>(tid));
  Rng rng(0xc4a05ull + static_cast<uint64_t>(tid));
  for (int i = 0; i < iters; ++i) {
    if (i % 16 == 0) {
      // Pre-scrub whatever spilled to the depot, injector permitting —
      // under the MagRefill schedule this aborts 20% of the time and the
      // frames must simply stay dirty.
      BuddyAllocator::Instance().ScrubBatch(64);
    }
    uint64_t pages = rng.Range(4, 17);  // 16 KiB .. 64 KiB.
    uint64_t len = pages << kPageBits;
    Result<Vaddr> va = space->MmapAnon(len, Perm::RW());
    if (!va.ok()) {
      continue;  // kNoMem: survived, try again.
    }
    successes->fetch_add(1, std::memory_order_relaxed);
    for (uint64_t p = 0; p < pages; ++p) {
      // kNoMem or kFault are acceptable; the page simply stays virtual.
      (void)space->HandleFault(*va + (p << kPageBits), Access::kWrite);
    }
    if (rng.Chance(1, 4)) {
      (void)space->Mprotect(*va, len, Perm::R());
      (void)space->Mprotect(*va, len, Perm::RW());
    }
    if (rng.Chance(1, 32)) {
      std::unique_ptr<VmSpace> child = space->Fork();
      if (child != nullptr) {
        // The child inherits the region COW; touch one page, then drop it.
        (void)child->HandleFault(*va, Access::kWrite);
      }
    }
    // Unmap in two halves half the time so boundary splits get exercised.
    if (pages >= 2 && rng.Chance(1, 2)) {
      uint64_t half = (pages / 2) << kPageBits;
      (void)space->Munmap(*va, half);
      (void)space->Munmap(*va + half, len - half);
    } else {
      (void)space->Munmap(*va, len);
    }
    // With the huge policy on, add 2 MiB traffic every few iterations: a
    // huge-aligned region faulted in as level-2 leaves, partially unmapped
    // (forcing a split), occasionally forked COW, then torn down.
    if (space->addr_space().options().huge_pages && rng.Chance(1, 8)) {
      Result<Vaddr> hva = space->MmapAnon(kHugePageSize, Perm::RW());
      if (hva.ok()) {
        successes->fetch_add(1, std::memory_order_relaxed);
        (void)space->HandleFault(*hva, Access::kWrite);
        (void)space->HandleFault(*hva + kHugePageSize / 2, Access::kRead);
        if (rng.Chance(1, 4)) {
          std::unique_ptr<VmSpace> child = space->Fork();
          if (child != nullptr) {
            (void)child->HandleFault(*hva, Access::kWrite);
          }
        }
        if (rng.Chance(1, 2)) {
          // Partial unmap splits the huge leaf; the rest dies separately.
          (void)space->Munmap(*hva, kHugePageSize / 4);
          (void)space->Munmap(*hva + kHugePageSize / 4,
                              kHugePageSize - kHugePageSize / 4);
        } else {
          (void)space->Munmap(*hva, kHugePageSize);
        }
      }
    }
  }
}

TEST_P(ChaosTest, InvariantsHoldUnderFaultInjection) {
  // Quiesce and snapshot the allocator before anything is created.
  TlbSystem::Instance().DrainAll();
  Rcu::Instance().DrainAll();
  BuddyAllocator::Instance().FlushCpuCaches();
  uint64_t baseline_free = BuddyAllocator::Instance().FreeFrameCount();

  {
    AddrSpace::Options options;
    options.protocol = GetParam().protocol;
    options.tlb_policy = GetParam().tlb_policy;
    options.huge_pages = GetParam().huge;
    options.fault_around_pages = GetParam().fault_around;
    auto space = std::make_unique<VmSpace>(options);

    ArmSchedule(GetParam().schedule);
    int threads = ChaosThreads();
    constexpr int kIters = 300;
    std::atomic<uint64_t> successes{0};
    const NodeTopology& topo = NodeTopology::Instance();
    const uint64_t local_before = GlobalStats().Total(Counter::kNumaLocalAllocs);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      // The numa axis stripes workers round-robin across nodes; the default
      // packs node 0 (the historical flat binding).
      CpuId cpu = GetParam().numa
                      ? topo.FirstCpuOfNode(t % topo.nodes()) + t / topo.nodes()
                      : static_cast<CpuId>(t);
      workers.emplace_back(ChaosWorker, space.get(), t, cpu, kIters, &successes);
    }
    for (std::thread& w : workers) {
      w.join();
    }
    FaultInjector::Instance().DisableAll();

    // The run must have made progress and (for kNoMem schedules) actually
    // exercised the failure paths.
    EXPECT_GT(successes.load(), 0u);
    if (InjectsNoMem(GetParam().schedule)) {
      EXPECT_GT(FaultInjector::Instance().TotalInjected(), 0u)
          << FaultInjector::Instance().DumpJson();
    }
    if (GetParam().numa && topo.nodes() >= 2) {
      // Striped workers must have routed allocations through the NUMA router
      // on more than one node — otherwise this axis tested nothing.
      EXPECT_GT(GlobalStats().Total(Counter::kNumaLocalAllocs), local_before);
    }

    // Quiesced structural check: the tree survived the chaos intact.
    WfReport report = CheckWellFormed(space->addr_space());
    EXPECT_TRUE(report.ok) << report.first_error;
  }

  // Every frame allocated during the run was either freed by an unmap or by
  // the space's destruction; a botched rollback shows up as a shortfall here.
  // misplaced_home (folded into leaks.ok) additionally proves every freed
  // frame went back to its home node's arena — the cross-node leak the numa
  // axis exists to catch.
  LeakReport leaks = CheckFrameLeaks(baseline_free);
  EXPECT_TRUE(leaks.ok) << "leaked " << leaks.leaked << " frames (baseline "
                        << leaks.baseline_free << ", now " << leaks.current_free
                        << "), " << leaks.misplaced_home
                        << " free frames on a foreign node's arena";
}

// Ring chaos: batches drain through the flat combiner while the injector
// forces allocator exhaustion and lock stalls mid-drain. The contract under
// fire: every submitted op reaps exactly one completion, in per-CPU
// submission order, with a definite Status (kOk or a real error — never a
// lost completion); and when the facade dies, no frame leaks.
class RingChaosTest : public ::testing::TestWithParam<Protocol> {
 protected:
  void TearDown() override {
    FaultInjector::Instance().DisableAll();
    FaultInjector::Instance().ResetCounters();
  }
};

TEST_P(RingChaosTest, EveryRingOpGetsADefiniteStatusUnderInjection) {
  TlbSystem::Instance().DrainAll();
  Rcu::Instance().DrainAll();
  BuddyAllocator::Instance().FlushCpuCaches();
  uint64_t baseline_free = BuddyAllocator::Instance().FreeFrameCount();

  {
    AddrSpace::Options options;
    options.protocol = GetParam();
    CortenVm mm(options);

    ArmSchedule(ChaosSchedule::kMixed);
    int threads = ChaosThreads();
    constexpr int kRounds = 60;
    std::atomic<uint64_t> completed_ok{0};
    std::atomic<bool> contract_broken{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        BindThisThreadToCpu(t);
        FaultInjector::SeedThread(0x5eedull ^ static_cast<uint64_t>(t));
        Rng rng(0xc4a05ull + static_cast<uint64_t>(t));
        const Vaddr base = (200ull + static_cast<uint64_t>(t)) << 30;
        for (int round = 0; round < kRounds; ++round) {
          uint64_t cookie = 0;
          auto submit = [&](MmSqe sqe) {
            sqe.user_data = cookie;
            if (mm.Submit(sqe)) {
              ++cookie;
            }
          };
          uint64_t regions = rng.Range(2, 7);
          for (uint64_t i = 0; i < regions; ++i) {
            Vaddr va = base + i * 8 * kPageSize;
            MmSqe map;
            map.op = MmOpCode::kMmapAnonFixed;
            map.va = va;
            map.len = 4 * kPageSize;
            map.perm = Perm::RW();
            submit(map);
            MmSqe fault;
            fault.op = MmOpCode::kFault;
            fault.va = va + (rng.Below(4) << kPageBits);
            fault.access = Access::kWrite;
            submit(fault);
            if (rng.Chance(1, 3)) {
              MmSqe prot;
              prot.op = MmOpCode::kMprotect;
              prot.va = va;
              prot.len = 4 * kPageSize;
              prot.perm = Perm::R();
              submit(prot);
            }
            MmSqe unmap;
            unmap.op = MmOpCode::kMunmap;
            unmap.va = va;
            unmap.len = 4 * kPageSize;
            submit(unmap);
          }
          mm.DrainBarrier();
          // Every accepted op must complete — in order, exactly once.
          MmCqe cqe;
          for (uint64_t expect = 0; expect < cookie; ++expect) {
            if (!mm.Reap(&cqe) || cqe.user_data != expect) {
              contract_broken.store(true);
              return;
            }
            if (cqe.err == ErrCode::kOk) {
              completed_ok.fetch_add(1, std::memory_order_relaxed);
            }
          }
          if (mm.Reap(&cqe)) {  // No phantom completions either.
            contract_broken.store(true);
            return;
          }
        }
      });
    }
    for (std::thread& w : workers) {
      w.join();
    }
    FaultInjector::Instance().DisableAll();

    EXPECT_FALSE(contract_broken.load());
    EXPECT_GT(completed_ok.load(), 0u);
    EXPECT_GT(FaultInjector::Instance().TotalInjected(), 0u)
        << FaultInjector::Instance().DumpJson();

    WfReport report = CheckWellFormed(mm.vm().addr_space());
    EXPECT_TRUE(report.ok) << report.first_error;
  }

  LeakReport leaks = CheckFrameLeaks(baseline_free);
  EXPECT_TRUE(leaks.ok) << "leaked " << leaks.leaked << " frames (baseline "
                        << leaks.baseline_free << ", now " << leaks.current_free << ")";
}

INSTANTIATE_TEST_SUITE_P(Protocols, RingChaosTest,
                         ::testing::Values(Protocol::kAdv, Protocol::kRw),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           return info.param == Protocol::kAdv ? "cortenmm_adv"
                                                               : "cortenmm_rw";
                         });

INSTANTIATE_TEST_SUITE_P(
    Protocols, ChaosTest,
    ::testing::Values(ChaosParam{Protocol::kAdv, ChaosSchedule::kNoMem},
                      ChaosParam{Protocol::kAdv, ChaosSchedule::kNoMemBurst},
                      ChaosParam{Protocol::kAdv, ChaosSchedule::kStraggler},
                      ChaosParam{Protocol::kAdv, ChaosSchedule::kLockStall},
                      ChaosParam{Protocol::kAdv, ChaosSchedule::kMixed},
                      ChaosParam{Protocol::kRw, ChaosSchedule::kNoMem},
                      ChaosParam{Protocol::kRw, ChaosSchedule::kStraggler},
                      ChaosParam{Protocol::kRw, ChaosSchedule::kLockStall},
                      ChaosParam{Protocol::kRw, ChaosSchedule::kMixed},
                      // Straggler chaos under the remaining TLB policies, so
                      // the gather + deferred reclamation path is stressed
                      // under all three (kEarlyAck is the default above).
                      ChaosParam{Protocol::kAdv, ChaosSchedule::kStraggler,
                                 TlbPolicy::kSync},
                      ChaosParam{Protocol::kAdv, ChaosSchedule::kStraggler,
                                 TlbPolicy::kLatr},
                      ChaosParam{Protocol::kRw, ChaosSchedule::kStraggler,
                                 TlbPolicy::kLatr},
                      ChaosParam{Protocol::kAdv, ChaosSchedule::kMixed,
                                 TlbPolicy::kLatr},
                      // Huge axis: order-9 fault-in + fallback + splits under
                      // each failure family, both protocols.
                      ChaosParam{Protocol::kAdv, ChaosSchedule::kNoMem,
                                 TlbPolicy::kEarlyAck, /*huge=*/true},
                      ChaosParam{Protocol::kAdv, ChaosSchedule::kMixed,
                                 TlbPolicy::kLatr, /*huge=*/true},
                      ChaosParam{Protocol::kRw, ChaosSchedule::kNoMem,
                                 TlbPolicy::kEarlyAck, /*huge=*/true},
                      ChaosParam{Protocol::kRw, ChaosSchedule::kStraggler,
                                 TlbPolicy::kSync, /*huge=*/true},
                      // Magazine-refill / pre-scrub failures, with and
                      // without fault-around speculation in the window.
                      ChaosParam{Protocol::kAdv, ChaosSchedule::kMagRefill},
                      ChaosParam{Protocol::kRw, ChaosSchedule::kMagRefill},
                      ChaosParam{Protocol::kAdv, ChaosSchedule::kMagRefill,
                                 TlbPolicy::kEarlyAck, /*huge=*/false,
                                 /*fault_around=*/16},
                      ChaosParam{Protocol::kAdv, ChaosSchedule::kMixed,
                                 TlbPolicy::kEarlyAck, /*huge=*/false,
                                 /*fault_around=*/16},
                      // NUMA axis: striped workers, so rollbacks and deferred
                      // frees cross node boundaries under each failure family
                      // and the misplaced_home gate has something to bite on.
                      ChaosParam{Protocol::kAdv, ChaosSchedule::kNoMem,
                                 TlbPolicy::kEarlyAck, /*huge=*/false,
                                 /*fault_around=*/0, /*numa=*/true},
                      ChaosParam{Protocol::kRw, ChaosSchedule::kNoMem,
                                 TlbPolicy::kEarlyAck, /*huge=*/false,
                                 /*fault_around=*/0, /*numa=*/true},
                      ChaosParam{Protocol::kAdv, ChaosSchedule::kMagRefill,
                                 TlbPolicy::kEarlyAck, /*huge=*/false,
                                 /*fault_around=*/0, /*numa=*/true},
                      ChaosParam{Protocol::kAdv, ChaosSchedule::kMixed,
                                 TlbPolicy::kLatr, /*huge=*/true,
                                 /*fault_around=*/0, /*numa=*/true}),
    [](const ::testing::TestParamInfo<ChaosParam>& info) {
      std::string name = std::string(ProtocolName(info.param.protocol)) + "_" +
                         ScheduleName(info.param.schedule) + "_" +
                         TlbPolicyName(info.param.tlb_policy) +
                         (info.param.huge ? "_Huge" : "") +
                         (info.param.fault_around != 0 ? "_Around" : "") +
                         (info.param.numa ? "_Numa" : "");
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace cortenmm
