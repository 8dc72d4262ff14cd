// Concurrency stress tests of the CortenMM core: the properties the paper
// verifies (§5) exercised on the real implementation under real threads —
// transactions on disjoint regions run in parallel without corrupting state,
// overlapping transactions serialize, the Figure 7 unmap race never yields
// use-after-free or lost updates, and a concurrent execution's final state
// matches a sequential oracle.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/vm_space.h"
#include "src/pmm/buddy.h"
#include "src/sim/corten_vm.h"
#include "src/sim/mmu.h"
#include "src/sync/rcu.h"
#include "src/tlb/shootdown.h"
#include "src/verif/wf_checker.h"

namespace cortenmm {
namespace {

int StressThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw >= 4 ? 4 : 2;
}

struct ConcurrencyParam {
  Protocol protocol;
  TlbPolicy tlb_policy;
};

class CoreConcurrencyTest : public ::testing::TestWithParam<ConcurrencyParam> {
 protected:
  AddrSpace::Options MakeOptions() const {
    AddrSpace::Options options;
    options.protocol = GetParam().protocol;
    options.tlb_policy = GetParam().tlb_policy;
    return options;
  }
};

TEST_P(CoreConcurrencyTest, DisjointPrivateRegions) {
  CortenVm mm(MakeOptions());
  int threads = StressThreads();
  constexpr int kRounds = 120;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      BindThisThreadToCpu(t);
      for (int round = 0; round < kRounds; ++round) {
        Result<Vaddr> va = mm.MmapAnon(16 * kPageSize, Perm::RW());
        if (!va.ok()) {
          failures.fetch_add(1);
          return;
        }
        for (int p = 0; p < 4; ++p) {
          uint64_t value = (static_cast<uint64_t>(t) << 32) | round;
          if (!MmuSim::Write(mm, *va + p * kPageSize, value).ok()) {
            failures.fetch_add(1);
            return;
          }
          uint64_t readback = 0;
          if (!MmuSim::Read(mm, *va + p * kPageSize, &readback).ok() ||
              readback != value) {
            failures.fetch_add(1);
            return;
          }
        }
        if (!mm.Munmap(*va, 16 * kPageSize).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(failures.load(), 0);
  WfReport report = CheckWellFormed(mm.vm().addr_space());
  EXPECT_TRUE(report.ok) << report.first_error;
}

TEST_P(CoreConcurrencyTest, SharedRegionConcurrentFaults) {
  // High-contention shape: all threads fault pages of one shared region.
  CortenVm mm(MakeOptions());
  constexpr uint64_t kRegionPages = 512;
  Result<Vaddr> region = mm.MmapAnon(kRegionPages * kPageSize, Perm::RW());
  ASSERT_TRUE(region.ok());
  int threads = StressThreads();
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      BindThisThreadToCpu(t);
      Rng rng(1000 + t);
      for (int i = 0; i < 400; ++i) {
        Vaddr va = *region + rng.Below(kRegionPages) * kPageSize;
        if (!MmuSim::Write(mm, va, va).ok()) {
          failures.fetch_add(1);
          return;
        }
        uint64_t value = 0;
        if (!MmuSim::Read(mm, va, &value).ok() || value != va) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(failures.load(), 0);
  WfReport report = CheckWellFormed(mm.vm().addr_space());
  EXPECT_TRUE(report.ok) << report.first_error;
}

TEST_P(CoreConcurrencyTest, UnmapRaceWithFaultingNeighbors) {
  // The Figure 7 shape on the real implementation: one thread repeatedly
  // mmaps/munmaps (removing PT pages), while others fault pages in adjacent
  // regions sharing upper-level PT pages. Under kAdv this drives the
  // stale-retry path; the kLockRetries counter proves it was exercised.
  CortenVm mm(MakeOptions());
  Vaddr base = 16ull << 30;  // All inside one 512 GiB (level-3) slot.
  constexpr uint64_t kSlot = 2ull << 20;  // One leaf PT page each.

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread churner([&] {
    BindThisThreadToCpu(0);
    for (int round = 0; round < 150 && !failures.load(); ++round) {
      Vaddr va = base;  // Same slot every round: create and destroy PT pages.
      if (!mm.vm().MmapAnonAt(va, 64 * kPageSize, Perm::RW()).ok()) {
        failures.fetch_add(1);
        break;
      }
      if (!MmuSim::TouchRange(mm, va, 64 * kPageSize, true).ok()) {
        failures.fetch_add(1);
        break;
      }
      if (!mm.Munmap(va, 64 * kPageSize).ok()) {
        failures.fetch_add(1);
        break;
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> neighbors;
  for (int t = 1; t < StressThreads(); ++t) {
    neighbors.emplace_back([&, t] {
      BindThisThreadToCpu(t);
      Vaddr my_base = base + static_cast<uint64_t>(t) * kSlot;
      if (!mm.vm().MmapAnonAt(my_base, 64 * kPageSize, Perm::RW()).ok()) {
        failures.fetch_add(1);
        return;
      }
      Rng rng(t);
      while (!stop.load(std::memory_order_acquire)) {
        Vaddr va = my_base + rng.Below(64) * kPageSize;
        uint64_t value = 0;
        if (!MmuSim::Write(mm, va, va ^ 0xf00d).ok() ||
            !MmuSim::Read(mm, va, &value).ok() || value != (va ^ 0xf00d)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  churner.join();
  for (auto& n : neighbors) {
    n.join();
  }
  EXPECT_EQ(failures.load(), 0);
  WfReport report = CheckWellFormed(mm.vm().addr_space());
  EXPECT_TRUE(report.ok) << report.first_error;
}

TEST_P(CoreConcurrencyTest, ConcurrentMatchesSequentialOracle) {
  // Threads apply deterministic op sequences to *disjoint* slices of one
  // address space concurrently; the final per-slice state must equal applying
  // the same sequence to a private space sequentially.
  int threads = StressThreads();
  CortenVm shared(MakeOptions());
  Vaddr base = 32ull << 30;
  constexpr uint64_t kSliceBytes = 4ull << 20;
  constexpr int kOps = 150;

  auto run_slice = [&](MmInterface& mm, VmSpace& vm, Vaddr slice, uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < kOps; ++i) {
      Vaddr va = slice + rng.Below(kSliceBytes / kPageSize / 4) * kPageSize * 4;
      switch (rng.Below(4)) {
        case 0:
          ASSERT_TRUE(vm.MmapAnonAt(va, 4 * kPageSize, Perm::RW()).ok());
          break;
        case 1:
          ASSERT_TRUE(MmuSim::Write(mm, va, seed * 1000 + i).ok() ||
                      true);  // Write may SEGV if unmapped; that is fine.
          break;
        case 2:
          ASSERT_TRUE(vm.Munmap(va, 4 * kPageSize).ok());
          break;
        case 3:
          vm.Mprotect(va, 4 * kPageSize, rng.Chance(1, 2) ? Perm::R() : Perm::RW());
          break;
      }
    }
  };

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      BindThisThreadToCpu(t);
      run_slice(shared, shared.vm(), base + t * kSliceBytes, 7000 + t);
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  // Sequential oracle: same ops, private space per slice.
  for (int t = 0; t < threads; ++t) {
    CortenVm oracle(MakeOptions());
    run_slice(oracle, oracle.vm(), base + t * kSliceBytes, 7000 + t);

    // Compare per-page status over the slice.
    VaRange slice(base + t * kSliceBytes, base + (t + 1) * kSliceBytes);
    RCursor shared_cursor = shared.vm().addr_space().Lock(slice);
    RCursor oracle_cursor = oracle.vm().addr_space().Lock(slice);
    for (Vaddr va = slice.start; va < slice.end; va += kPageSize) {
      Status s = shared_cursor.Query(va);
      Status o = oracle_cursor.Query(va);
      ASSERT_EQ(s.tag, o.tag) << "page " << std::hex << va;
      if (!s.invalid()) {
        ASSERT_EQ(s.perm.bits, o.perm.bits) << "page " << std::hex << va;
      }
    }
  }
}

TEST_P(CoreConcurrencyTest, NoFrameLeaksUnderChurn) {
  uint64_t balance_before = GlobalStats().Total(Counter::kFramesAllocated) -
                            GlobalStats().Total(Counter::kFramesFreed);
  {
    CortenVm mm(MakeOptions());
    int threads = StressThreads();
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        BindThisThreadToCpu(t);
        for (int round = 0; round < 60; ++round) {
          Result<Vaddr> va = mm.MmapAnon(32 * kPageSize, Perm::RW());
          ASSERT_TRUE(va.ok());
          ASSERT_TRUE(MmuSim::TouchRange(mm, *va, 32 * kPageSize, true).ok());
          ASSERT_TRUE(mm.Munmap(*va, 32 * kPageSize).ok());
        }
      });
    }
    for (auto& w : workers) {
      w.join();
    }
  }
  TlbSystem::Instance().DrainAll();
  Rcu::Instance().DrainAll();
  uint64_t balance_after = GlobalStats().Total(Counter::kFramesAllocated) -
                           GlobalStats().Total(Counter::kFramesFreed);
  EXPECT_EQ(balance_before, balance_after)
      << "leaked " << (balance_after - balance_before) << " frames";
}

TEST_P(CoreConcurrencyTest, ForkWhileNeighborsChurn) {
  // One thread forks repeatedly while the others mmap, touch and munmap
  // 4-page chunks in their own 2 MiB slots, so every clone reads a tree that
  // other transactions keep reshaping between forks, including the empty
  // leaf PT pages the clone skips. Every child must be well formed, carry the
  // parent's data and account its resident pages exactly; nothing may leak.
  TlbSystem::Instance().DrainAll();
  Rcu::Instance().DrainAll();
  BuddyAllocator::Instance().FlushCpuCaches();
  uint64_t baseline_free = BuddyAllocator::Instance().FreeFrameCount();
  std::atomic<int> failures{0};
  {
    CortenVm mm(MakeOptions());
    Vaddr base = 48ull << 30;
    constexpr uint64_t kSlot = 2ull << 20;
    constexpr uint64_t kKeptPages = 16;
    ASSERT_TRUE(mm.vm().MmapAnonAt(base, kKeptPages * kPageSize, Perm::RW()).ok());
    for (uint64_t p = 0; p < kKeptPages; ++p) {
      ASSERT_TRUE(MmuSim::Write(mm, base + p * kPageSize, p + 1).ok());
    }

    std::atomic<bool> stop{false};
    std::vector<std::thread> churners;
    for (int t = 1; t < StressThreads(); ++t) {
      churners.emplace_back([&, t] {
        BindThisThreadToCpu(t);
        Vaddr slot = base + static_cast<uint64_t>(t) * kSlot;
        Rng rng(t);
        while (!stop.load(std::memory_order_acquire) && failures.load() == 0) {
          Vaddr va = slot + rng.Below(64) * 4 * kPageSize;
          if (!mm.vm().MmapAnonAt(va, 4 * kPageSize, Perm::RW()).ok() ||
              !MmuSim::Write(mm, va, va).ok() || !mm.Munmap(va, 4 * kPageSize).ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    std::thread forker([&] {
      BindThisThreadToCpu(0);
      for (int round = 0; round < 40 && failures.load() == 0; ++round) {
        std::unique_ptr<VmSpace> forked = mm.vm().Fork();
        if (forked == nullptr) {
          failures.fetch_add(1);
          break;
        }
        CortenVm child(std::move(forked));
        WfReport report = CheckWellFormed(child.vm().addr_space());
        uint64_t value = 0;
        Vaddr probe = base + (round % kKeptPages) * kPageSize;
        if (!report.ok ||
            child.vm().addr_space().ResidentPagesFast() != child.vm().ResidentPages() ||
            !MmuSim::Read(child, probe, &value).ok() ||
            value != (round % kKeptPages) + 1) {
          failures.fetch_add(1);
        }
      }
      stop.store(true, std::memory_order_release);
    });
    forker.join();
    for (auto& c : churners) {
      c.join();
    }
    EXPECT_EQ(failures.load(), 0);
    WfReport report = CheckWellFormed(mm.vm().addr_space());
    EXPECT_TRUE(report.ok) << report.first_error;
  }
  LeakReport leaks = CheckFrameLeaks(baseline_free);
  EXPECT_TRUE(leaks.ok) << "leaked " << leaks.leaked << " frames";
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsAndShootdowns, CoreConcurrencyTest,
    ::testing::Values(ConcurrencyParam{Protocol::kRw, TlbPolicy::kSync},
                      ConcurrencyParam{Protocol::kAdv, TlbPolicy::kSync},
                      ConcurrencyParam{Protocol::kRw, TlbPolicy::kEarlyAck},
                      ConcurrencyParam{Protocol::kAdv, TlbPolicy::kEarlyAck},
                      ConcurrencyParam{Protocol::kRw, TlbPolicy::kLatr},
                      ConcurrencyParam{Protocol::kAdv, TlbPolicy::kLatr}),
    [](const ::testing::TestParamInfo<ConcurrencyParam>& info) {
      std::string name = info.param.protocol == Protocol::kRw ? "rw" : "adv";
      name += "_";
      name += TlbPolicyName(info.param.tlb_policy);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace cortenmm
