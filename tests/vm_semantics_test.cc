// Advanced memory-semantics tests (paper Table 2): reverse mapping, shared
// anonymous segments across fork, swap block sharing, file write-back
// visibility, huge-page lifecycles, and on-demand paging edge cases.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/stats.h"
#include "src/core/vm_space.h"
#include "src/fault/fault_inject.h"
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"
#include "src/sim/corten_vm.h"
#include "src/sim/mmu.h"
#include "src/sync/rcu.h"
#include "src/tlb/shootdown.h"
#include "src/verif/wf_checker.h"

namespace cortenmm {
namespace {

AddrSpace::Options AdvOptions() {
  AddrSpace::Options options;
  options.protocol = Protocol::kAdv;
  return options;
}

// ---------------------------------------------------------------------------
// Reverse mapping
// ---------------------------------------------------------------------------

TEST(ReverseMappingTest, AnonFrameRecordsOwnerSpaceAndVa) {
  CortenVm mm(AdvOptions());
  Result<Vaddr> va = mm.MmapAnon(kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(mm, *va, 5).ok());

  // Find the frame via the page table, then check the descriptor's rmap.
  RCursor cursor = mm.vm().addr_space().Lock(VaRange(*va, *va + kPageSize));
  Status status = cursor.Query(*va);
  ASSERT_TRUE(status.mapped());
  PageDescriptor& desc = PhysMem::Instance().Descriptor(status.pfn);
  SpinGuard guard(desc.rmap_lock);
  EXPECT_EQ(desc.owner.load(), &mm.vm().addr_space());
  EXPECT_EQ(desc.owner_key.load(), *va);
  EXPECT_EQ(desc.type.load(), FrameType::kAnon);
}

TEST(ReverseMappingTest, FilePagesRecordFileAndIndex) {
  SimFile* file = FileRegistry::Instance().CreateFile(4);
  Result<Pfn> page = file->GetPage(2);
  ASSERT_TRUE(page.ok());
  PageDescriptor& desc = PhysMem::Instance().Descriptor(*page);
  SpinGuard guard(desc.rmap_lock);
  EXPECT_EQ(desc.owner.load(), file);
  EXPECT_EQ(desc.owner_key.load(), 2u);
  EXPECT_EQ(desc.type.load(), FrameType::kFileCache);
}

TEST(ReverseMappingTest, FileTracksMappingsForRmapWalks) {
  CortenVm a(AdvOptions());
  CortenVm b(AdvOptions());
  SimFile* file = FileRegistry::Instance().CreateFile(16);
  Result<Vaddr> va_a = a.MmapFilePrivate(file, 0, 16 * kPageSize, Perm::R());
  Result<Vaddr> va_b = b.MmapFilePrivate(file, 4, 8 * kPageSize, Perm::R());
  ASSERT_TRUE(va_a.ok());
  ASSERT_TRUE(va_b.ok());

  // Page 6 is covered by both mappings; page 1 only by the first.
  EXPECT_EQ(file->MappingsOf(6).size(), 2u);
  EXPECT_EQ(file->MappingsOf(1).size(), 1u);
  // The rmap entries identify the exact (space, va) pairs.
  std::vector<FileMapping> hits = file->MappingsOf(6);
  bool saw_a = false;
  bool saw_b = false;
  for (const FileMapping& m : hits) {
    saw_a |= m.space == &a.vm().addr_space();
    saw_b |= m.space == &b.vm().addr_space();
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);

  // Rmap entries go away with the mapping.
  file->RemoveMappings(&a.vm().addr_space(), *va_a);
  EXPECT_EQ(file->MappingsOf(6).size(), 1u);
}

// ---------------------------------------------------------------------------
// Shared anonymous segments
// ---------------------------------------------------------------------------

TEST(SharedAnonTest, SurvivesForkAndStaysCoherent) {
  CortenVm parent(AdvOptions());
  SimFile* segment = FileRegistry::Instance().CreateSharedAnonSegment(4);
  Result<Vaddr> va = parent.MmapShared(segment, 0, 4 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(parent, *va, 111).ok());

  // Fork through the facade: the child is itself a full MmInterface.
  std::unique_ptr<MmInterface> child = parent.Fork();
  ASSERT_NE(child, nullptr);

  // Shared mapping: the child's write must be visible to the parent (no COW).
  ASSERT_TRUE(MmuSim::Write(*child, *va, 222).ok());
  uint64_t value = 0;
  ASSERT_TRUE(MmuSim::Read(parent, *va, &value).ok());
  EXPECT_EQ(value, 222u);
}

TEST(SharedAnonTest, MprotectAfterForkBreaksSharingCorrectly) {
  // Regression: a *read-only* private page shared by fork must still carry
  // the COW mark, or mprotect(RW)+write in one space corrupts the other.
  CortenVm parent(AdvOptions());
  Result<Vaddr> va = parent.MmapAnon(kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(parent, *va, 1234).ok());
  ASSERT_TRUE(parent.Mprotect(*va, kPageSize, Perm::R()).ok());  // Now read-only.

  std::unique_ptr<VmSpace> child_vm = parent.vm().Fork();
  // Child re-enables writes and scribbles; the parent's view must not change.
  ASSERT_TRUE(child_vm->Mprotect(*va, kPageSize, Perm::RW()).ok());
  RCursor cursor = child_vm->addr_space().Lock(VaRange(*va, *va + kPageSize));
  Status status = cursor.Query(*va);
  ASSERT_TRUE(status.mapped());
  EXPECT_TRUE(status.perm.cow()) << "read-only private page lost its COW mark in fork";
}

// ---------------------------------------------------------------------------
// Swap semantics
// ---------------------------------------------------------------------------

TEST(SwapTest, ForkSharesSwapBlocks) {
  CortenVm parent(AdvOptions());
  Result<Vaddr> va = parent.MmapAnon(2 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(parent, *va, 4242).ok());
  ASSERT_TRUE(MmuSim::Write(parent, *va + kPageSize, 4343).ok());
  Result<uint64_t> swapped = parent.SwapOut(*va, 2 * kPageSize);
  ASSERT_TRUE(swapped.ok());
  ASSERT_EQ(*swapped, 2u);

  uint64_t blocks_before = SwapDevice::Instance().blocks_in_use();
  std::unique_ptr<MmInterface> child = parent.Fork();
  ASSERT_NE(child, nullptr);
  // Fork shares the swapped pages via block refcounts: no new blocks.
  EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_before);

  // Both sides can fault their copy back in independently.
  ASSERT_TRUE(parent.HandleFault(*va, Access::kRead).ok());
  ASSERT_TRUE(child->HandleFault(*va, Access::kRead).ok());
  uint64_t value = 0;
  ASSERT_TRUE(MmuSim::Read(parent, *va, &value).ok());
  EXPECT_EQ(value, 4242u);
}

TEST(SwapTest, MunmapReleasesBlocks) {
  CortenVm mm(AdvOptions());
  Result<Vaddr> va = mm.MmapAnon(4 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::TouchRange(mm, *va, 4 * kPageSize, true).ok());
  ASSERT_TRUE(mm.SwapOut(*va, 4 * kPageSize).ok());
  uint64_t used = SwapDevice::Instance().blocks_in_use();
  ASSERT_TRUE(mm.Munmap(*va, 4 * kPageSize).ok());
  EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), used - 4);
}

// MAP_FIXED over swapped pages erases their Swapped marks, and with them the
// marks' block references.
TEST(SwapTest, MapFixedOverSwappedPagesReleasesBlocks) {
  CortenVm mm(AdvOptions());
  Result<Vaddr> va = mm.MmapAnon(4 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::TouchRange(mm, *va, 4 * kPageSize, true).ok());
  uint64_t blocks_before = SwapDevice::Instance().blocks_in_use();
  Result<uint64_t> swapped = mm.SwapOut(*va, 4 * kPageSize);
  ASSERT_TRUE(swapped.ok());
  ASSERT_EQ(*swapped, 4u);
  ASSERT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_before + 4);
  ASSERT_TRUE(mm.vm().MmapAnonAt(*va, 4 * kPageSize, Perm::RW()).ok());
  EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_before);
  uint64_t value = 1;
  ASSERT_TRUE(MmuSim::Read(mm, *va, &value).ok());
  EXPECT_EQ(value, 0u);  // Demand-zero again, not the swapped contents.
}

// The same through the ring: a MAP_FIXED and a fault in one subtree run as
// one fused transaction.
TEST(SwapTest, RingFusedMapFixedOverSwappedPagesReleasesBlocks) {
  CortenVm mm(AdvOptions());
  Result<Vaddr> va = mm.MmapAnon(4 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::TouchRange(mm, *va, 4 * kPageSize, true).ok());
  uint64_t blocks_before = SwapDevice::Instance().blocks_in_use();
  Result<uint64_t> swapped = mm.SwapOut(*va, 4 * kPageSize);
  ASSERT_TRUE(swapped.ok());
  ASSERT_EQ(*swapped, 4u);
  uint64_t fused_before = GlobalStats().Total(Counter::kFusedTxns);
  MmSqe map;
  map.op = MmOpCode::kMmapAnonFixed;
  map.va = *va;
  map.len = 4 * kPageSize;
  map.perm = Perm::RW();
  map.user_data = 1;
  MmSqe fault;
  fault.op = MmOpCode::kFault;
  fault.va = *va;
  fault.access = Access::kWrite;
  fault.user_data = 2;
  ASSERT_TRUE(mm.Submit(map));
  ASSERT_TRUE(mm.Submit(fault));
  mm.DrainBarrier();
  for (uint64_t cookie = 1; cookie <= 2; ++cookie) {
    MmCqe cqe;
    ASSERT_TRUE(mm.Reap(&cqe));
    EXPECT_EQ(cqe.user_data, cookie);
    EXPECT_EQ(cqe.err, ErrCode::kOk) << cookie;
  }
  EXPECT_EQ(GlobalStats().Total(Counter::kFusedTxns), fused_before + 1);
  EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_before);
  EXPECT_EQ(mm.vm().addr_space().ResidentPagesFast(), 1u);
}

TEST(SwapTest, SwapInFaultReleasesItsBlock) {
  CortenVm mm(AdvOptions());
  Result<Vaddr> va = mm.MmapAnon(kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(mm, *va, 77).ok());
  uint64_t blocks_before = SwapDevice::Instance().blocks_in_use();
  Result<uint64_t> swapped = mm.SwapOut(*va, kPageSize);
  ASSERT_TRUE(swapped.ok());
  ASSERT_EQ(*swapped, 1u);
  ASSERT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_before + 1);
  ASSERT_TRUE(mm.HandleFault(*va, Access::kRead).ok());
  EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_before);
  uint64_t value = 0;
  ASSERT_TRUE(MmuSim::Read(mm, *va, &value).ok());
  EXPECT_EQ(value, 77u);
}

TEST(SwapTest, SwapSkipsSharedCowPages) {
  CortenVm parent(AdvOptions());
  Result<Vaddr> va = parent.MmapAnon(kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(parent, *va, 9).ok());
  std::unique_ptr<MmInterface> child = parent.Fork();
  // The page is mapcount 2 (COW-shared): SwapOut must leave it alone.
  Result<uint64_t> swapped = parent.SwapOut(*va, kPageSize);
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(*swapped, 0u);
}

// ---------------------------------------------------------------------------
// File mappings
// ---------------------------------------------------------------------------

TEST(FileMappingTest, SharedFileWritesHitThePageCache) {
  CortenVm mm(AdvOptions());
  SimFile* file = FileRegistry::Instance().CreateFile(4);
  Result<Vaddr> va = mm.MmapShared(file, 0, 4 * kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(mm, *va, 0x5eed).ok());
  ASSERT_TRUE(mm.Msync(*va, 4 * kPageSize).ok());

  // The cache frame *is* the file: a second mapping observes the write.
  CortenVm other(AdvOptions());
  Result<Vaddr> va2 = other.MmapShared(file, 0, 4 * kPageSize, Perm::R());
  ASSERT_TRUE(va2.ok());
  uint64_t value = 0;
  ASSERT_TRUE(MmuSim::Read(other, *va2, &value).ok());
  EXPECT_EQ(value, 0x5eedu);
}

TEST(FileMappingTest, PrivateMapUnaffectedByLaterCacheWrites) {
  CortenVm reader(AdvOptions());
  CortenVm writer(AdvOptions());
  SimFile* file = FileRegistry::Instance().CreateFile(2);
  Result<Vaddr> rva = reader.MmapFilePrivate(file, 0, kPageSize, Perm::RW());
  ASSERT_TRUE(rva.ok());
  // Private write: breaks to a private copy immediately.
  ASSERT_TRUE(MmuSim::Write(reader, *rva, 0x1111).ok());

  Result<Vaddr> wva = writer.MmapShared(file, 0, kPageSize, Perm::RW());
  ASSERT_TRUE(wva.ok());
  ASSERT_TRUE(MmuSim::Write(writer, *wva, 0x2222).ok());

  uint64_t value = 0;
  ASSERT_TRUE(MmuSim::Read(reader, *rva, &value).ok());
  EXPECT_EQ(value, 0x1111u);  // Still the private copy.
}

TEST(FileMappingTest, OffsetMappingsReadTheRightPages) {
  CortenVm mm(AdvOptions());
  SimFile* file = FileRegistry::Instance().CreateFile(64);
  // Map pages [32, 40).
  Result<Vaddr> va = mm.MmapFilePrivate(file, 32, 8 * kPageSize, Perm::R());
  ASSERT_TRUE(va.ok());
  for (int i = 0; i < 8; ++i) {
    uint64_t value = 0;
    ASSERT_TRUE(MmuSim::Read(mm, *va + i * kPageSize, &value).ok());
    uint64_t expected = 0;
    uint64_t file_offset = static_cast<uint64_t>(32 + i) * kPageSize;
    for (int byte = 7; byte >= 0; --byte) {
      expected = (expected << 8) | SimFile::ContentByte(file->id(), file_offset + byte);
    }
    EXPECT_EQ(value, expected) << "page " << i;
  }
}

// ---------------------------------------------------------------------------
// On-demand paging edge cases
// ---------------------------------------------------------------------------

TEST(OnDemandTest, ReadBeforeWriteZeroFills) {
  CortenVm mm(AdvOptions());
  Result<Vaddr> va = mm.MmapAnon(kPageSize, Perm::RW());
  ASSERT_TRUE(va.ok());
  uint64_t faults = GlobalStats().Total(Counter::kDemandZeroFills);
  uint64_t value = 0xffff;
  ASSERT_TRUE(MmuSim::Read(mm, *va, &value).ok());
  EXPECT_EQ(value, 0u);
  EXPECT_EQ(GlobalStats().Total(Counter::kDemandZeroFills), faults + 1);
  // The second access takes no fault.
  ASSERT_TRUE(MmuSim::Write(mm, *va, 3).ok());
  EXPECT_EQ(GlobalStats().Total(Counter::kDemandZeroFills), faults + 1);
}

TEST(OnDemandTest, ExecFaultOnNoExecPage) {
  CortenVm mm(AdvOptions());
  Result<Vaddr> va = mm.MmapAnon(kPageSize, Perm::RW());  // rw-, no exec.
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::Write(mm, *va, 1).ok());
  EXPECT_EQ(MmuSim::Access(mm, *va, Access::kExec).error(), ErrCode::kFault);
}

TEST(OnDemandTest, HugeRegionMarksStayCoarseUntilTouched) {
  CortenVm mm(AdvOptions());
  uint64_t pt_before = GlobalStats().Total(Counter::kPtPagesAllocated) -
                       GlobalStats().Total(Counter::kPtPagesFreed);
  // 1 GiB mapping: should cost O(1) PT pages until pages are touched.
  Result<Vaddr> va = mm.MmapAnon(1ull << 30, Perm::RW());
  ASSERT_TRUE(va.ok());
  uint64_t pt_after_mmap = GlobalStats().Total(Counter::kPtPagesAllocated) -
                           GlobalStats().Total(Counter::kPtPagesFreed);
  EXPECT_LE(pt_after_mmap - pt_before, 8u);
  ASSERT_TRUE(MmuSim::Write(mm, *va + (512ull << 20), 1).ok());
  ASSERT_TRUE(mm.Munmap(*va, 1ull << 30).ok());
}

// ---------------------------------------------------------------------------
// Fork over a churned parent: empty PT subtrees are not cloned
// ---------------------------------------------------------------------------

constexpr Vaddr kChurnBase = 64ull << 30;
constexpr uint64_t kSlotBytes = 2ull << 20;  // The span of one leaf PT page.
constexpr int kChurnSlots = 8;

// PT pages of |space| holding a present entry or a metadata mark.
uint64_t CountPopulatedPtPages(AddrSpace& space) {
  uint64_t populated = 0;
  space.page_table().ForEachPtPagePostOrder(
      space.page_table().root(), kPtLevels, [&populated](Pfn pfn, int) {
        PageDescriptor& desc = PhysMem::Instance().Descriptor(pfn);
        bool marked = false;
        if (const PteMetaArray* meta = desc.meta.load(std::memory_order_acquire)) {
          for (const PteMeta& entry : meta->entries) {
            marked = marked || !entry.empty();
          }
        }
        if (marked || desc.present_ptes.load(std::memory_order_relaxed) != 0) {
          ++populated;
        }
      });
  return populated;
}

// Small mmap/fault/munmap cycles over kChurnSlots 2 MiB slots. Even slots end
// empty, but their leaf PT pages stay linked: a small munmap's covering lock
// is the leaf page itself, so it cannot unlink it. Odd slots keep their first
// 4-page region, whose first word holds the slot number + 1.
void ChurnParent(CortenVm& mm) {
  for (int slot = 0; slot < kChurnSlots; ++slot) {
    Vaddr slot_base = kChurnBase + slot * kSlotBytes;
    for (int k = 0; k < 4; ++k) {
      Vaddr va = slot_base + k * 16 * kPageSize;
      ASSERT_TRUE(mm.vm().MmapAnonAt(va, 4 * kPageSize, Perm::RW()).ok());
      ASSERT_TRUE(MmuSim::TouchRange(mm, va, 4 * kPageSize, /*write=*/true).ok());
      if (slot % 2 == 0 || k != 0) {
        ASSERT_TRUE(mm.Munmap(va, 4 * kPageSize).ok());
      }
    }
    if (slot % 2 == 1) {
      ASSERT_TRUE(MmuSim::Write(mm, slot_base, slot + 1).ok());
    }
  }
}

void ExpectChurnedData(CortenVm& mm) {
  for (int slot = 1; slot < kChurnSlots; slot += 2) {
    uint64_t value = 0;
    ASSERT_TRUE(MmuSim::Read(mm, kChurnBase + slot * kSlotBytes, &value).ok()) << slot;
    EXPECT_EQ(value, static_cast<uint64_t>(slot + 1)) << slot;
  }
}

// Drains deferred reclamation and returns the free-frame count a leak check
// compares against.
uint64_t QuiescedFreeFrames() {
  TlbSystem::Instance().DrainAll();
  Rcu::Instance().DrainAll();
  BuddyAllocator::Instance().FlushCpuCaches();
  return BuddyAllocator::Instance().FreeFrameCount();
}

TEST(ForkSkipTest, ChildOfChurnedParentHoldsOnlyPopulatedPtPages) {
  CortenVm parent(AdvOptions());
  ASSERT_NO_FATAL_FAILURE(ChurnParent(parent));
  AddrSpace& parent_space = parent.vm().addr_space();
  uint64_t parent_pages = parent_space.page_table().CountPtPages();
  uint64_t populated = CountPopulatedPtPages(parent_space);
  uint64_t resident = parent_space.ResidentPagesFast();
  ASSERT_GE(parent_pages - populated, static_cast<uint64_t>(kChurnSlots / 2))
      << "the churn left no empty leaf PT page to skip";

  std::unique_ptr<VmSpace> forked = parent.vm().Fork();
  ASSERT_NE(forked, nullptr);
  CortenVm child(std::move(forked));
  AddrSpace& child_space = child.vm().addr_space();
  EXPECT_EQ(child_space.page_table().CountPtPages(), populated);
  EXPECT_EQ(child_space.ResidentPagesFast(), resident);
  WfReport child_report = CheckWellFormed(child_space);
  EXPECT_TRUE(child_report.ok) << child_report.first_error;
  WfReport parent_report = CheckWellFormed(parent_space);
  EXPECT_TRUE(parent_report.ok) << parent_report.first_error;

  // The parent keeps its empty tables and its contents.
  EXPECT_EQ(parent_space.page_table().CountPtPages(), parent_pages);
  EXPECT_EQ(CountPopulatedPtPages(parent_space), populated);
  EXPECT_EQ(parent_space.ResidentPagesFast(), resident);
  ExpectChurnedData(child);
  ExpectChurnedData(parent);
}

// A table with no present entry can still carry state: never-faulted marks
// and swapped-out pages. Those tables must be cloned.
TEST(ForkSkipTest, MarkOnlyTablesAreCloned) {
  uint64_t baseline_free = QuiescedFreeFrames();
  uint64_t blocks_before = SwapDevice::Instance().blocks_in_use();
  {
    CortenVm parent(AdvOptions());
    Vaddr untouched = kChurnBase;             // Slot 0: a never-faulted mapping.
    Vaddr swapped = kChurnBase + kSlotBytes;  // Slot 1: one swapped-out page.
    ASSERT_TRUE(parent.vm().MmapAnonAt(untouched, 4 * kPageSize, Perm::RW()).ok());
    ASSERT_TRUE(parent.vm().MmapAnonAt(swapped, kPageSize, Perm::RW()).ok());
    ASSERT_TRUE(MmuSim::Write(parent, swapped, 0xfeed).ok());
    Result<uint64_t> out = parent.SwapOut(swapped, kPageSize);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(*out, 1u);
    ASSERT_EQ(parent.vm().addr_space().ResidentPagesFast(), 0u);

    std::unique_ptr<VmSpace> forked = parent.vm().Fork();
    ASSERT_NE(forked, nullptr);
    CortenVm child(std::move(forked));
    EXPECT_EQ(child.vm().addr_space().page_table().CountPtPages(),
              parent.vm().addr_space().page_table().CountPtPages());
    uint64_t value = 1;
    ASSERT_TRUE(MmuSim::Read(child, untouched + 2 * kPageSize, &value).ok());
    EXPECT_EQ(value, 0u);
    ASSERT_TRUE(MmuSim::Read(child, swapped, &value).ok());
    EXPECT_EQ(value, 0xfeedu);
    ASSERT_TRUE(MmuSim::Read(parent, swapped, &value).ok());
    EXPECT_EQ(value, 0xfeedu);
    WfReport report = CheckWellFormed(child.vm().addr_space());
    EXPECT_TRUE(report.ok) << report.first_error;
  }
  EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_before);
  LeakReport leaks = CheckFrameLeaks(baseline_free);
  EXPECT_TRUE(leaks.ok) << "leaked " << leaks.leaked << " frames";
}

// Fail the N-th PT-page allocation of a fork, for every N up to the full
// clone: each partial clone must roll back without leaking a frame or a swap
// block, and leave the parent well formed with its data.
TEST(ForkSkipTest, PartialClonesUnderPtAllocFailuresLeakNothing) {
  uint64_t baseline_free = QuiescedFreeFrames();
  uint64_t blocks_before = SwapDevice::Instance().blocks_in_use();
  {
    CortenVm parent(AdvOptions());
    ASSERT_NO_FATAL_FAILURE(ChurnParent(parent));
    Vaddr swapped = kChurnBase + kSlotBytes + kPageSize;
    Result<uint64_t> out = parent.SwapOut(swapped, kPageSize);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(*out, 1u);
    uint64_t blocks_parent = SwapDevice::Instance().blocks_in_use();
    // A full fork allocates one PT page per populated parent page (the root
    // included) and nothing else.
    uint64_t full_clone = CountPopulatedPtPages(parent.vm().addr_space());
    for (uint64_t n = 0; n <= full_clone; ++n) {
      FaultConfig fail_after_n;
      fail_after_n.fail_after = n;
      FaultInjector::Instance().Enable(FaultSite::kBuddyAllocFrame, fail_after_n);
      std::unique_ptr<VmSpace> child = parent.vm().Fork();
      FaultInjector::Instance().DisableAll();
      EXPECT_EQ(child != nullptr, n == full_clone) << n;
      child.reset();
      EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_parent) << n;
      WfReport report = CheckWellFormed(parent.vm().addr_space());
      EXPECT_TRUE(report.ok) << n << ": " << report.first_error;
      ASSERT_NO_FATAL_FAILURE(ExpectChurnedData(parent)) << n;
    }
    FaultInjector::Instance().ResetCounters();
  }
  EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_before);
  LeakReport leaks = CheckFrameLeaks(baseline_free);
  EXPECT_TRUE(leaks.ok) << "leaked " << leaks.leaked << " frames";
}

// CloneInto straight between two address spaces, failing the N-th PT-page
// allocation: the partial child must be well formed (its persisted present
// counts match its slots) before anything tears it down, and its teardown
// must return every frame and swap block the clone took.
TEST(ForkSkipTest, PartialCloneIntoLeavesChildWellFormed) {
  uint64_t baseline_free = QuiescedFreeFrames();
  uint64_t blocks_before = SwapDevice::Instance().blocks_in_use();
  {
    CortenVm parent(AdvOptions());
    ASSERT_NO_FATAL_FAILURE(ChurnParent(parent));
    Vaddr swapped = kChurnBase + kSlotBytes + kPageSize;
    Result<uint64_t> out = parent.SwapOut(swapped, kPageSize);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(*out, 1u);
    uint64_t blocks_parent = SwapDevice::Instance().blocks_in_use();
    AddrSpace& parent_space = parent.vm().addr_space();
    // The child's root exists before the clone, which allocates the rest.
    uint64_t clone_allocs = CountPopulatedPtPages(parent_space) - 1;
    const VaRange everything(0, kVaLimit);
    for (uint64_t n = 0; n <= clone_allocs; ++n) {
      AddrSpace child(AdvOptions());
      VoidResult cloned;
      {
        RCursor parent_cursor = parent_space.Lock(everything);
        RCursor child_cursor = child.Lock(everything);
        FaultConfig fail_after_n;
        fail_after_n.fail_after = n;
        FaultInjector::Instance().Enable(FaultSite::kBuddyAllocFrame, fail_after_n);
        cloned = parent_cursor.CloneInto(child_cursor);
        FaultInjector::Instance().DisableAll();
      }
      EXPECT_EQ(cloned.ok(), n == clone_allocs) << n;
      WfReport report = CheckWellFormed(child);
      EXPECT_TRUE(report.ok) << n << ": " << report.first_error;
    }
    FaultInjector::Instance().ResetCounters();
    EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_parent);
    WfReport report = CheckWellFormed(parent_space);
    EXPECT_TRUE(report.ok) << report.first_error;
    ASSERT_NO_FATAL_FAILURE(ExpectChurnedData(parent));
  }
  EXPECT_EQ(SwapDevice::Instance().blocks_in_use(), blocks_before);
  LeakReport leaks = CheckFrameLeaks(baseline_free);
  EXPECT_TRUE(leaks.ok) << "leaked " << leaks.leaked << " frames";
}

// ---------------------------------------------------------------------------
// Resident-set accounting
// ---------------------------------------------------------------------------

// The O(1) counter the cursor maintains must agree with a walk of the page
// table through partial munmaps (splitting huge leaves), MAP_FIXED
// replacement, fork and a full unmap.
TEST(ResidentAccountingTest, FastCounterMatchesWalk) {
  AddrSpace::Options options = AdvOptions();
  options.huge_pages = true;
  CortenVm mm(options);
  auto expect_match = [](VmSpace& vm) {
    EXPECT_EQ(vm.addr_space().ResidentPagesFast(), vm.ResidentPages());
  };
  constexpr uint64_t kLen = 4ull << 20;
  Result<Vaddr> va = mm.MmapAnon(kLen, Perm::RW());
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(MmuSim::TouchRange(mm, *va, kLen, /*write=*/true).ok());
  EXPECT_EQ(mm.vm().addr_space().ResidentPagesFast(), kLen / kPageSize);
  expect_match(mm.vm());

  ASSERT_TRUE(mm.Munmap(*va + 5 * kPageSize, 3 * kPageSize).ok());
  expect_match(mm.vm());
  Vaddr fixed = *va + kSlotBytes - 8 * kPageSize;
  ASSERT_TRUE(mm.vm().MmapAnonAt(fixed, 16 * kPageSize, Perm::RW()).ok());
  expect_match(mm.vm());
  ASSERT_TRUE(MmuSim::TouchRange(mm, fixed + 4 * kPageSize, 8 * kPageSize, true).ok());
  expect_match(mm.vm());

  {
    std::unique_ptr<VmSpace> child = mm.vm().Fork();
    ASSERT_NE(child, nullptr);
    expect_match(*child);
    ASSERT_TRUE(child->Munmap(*va, kSlotBytes).ok());
    expect_match(*child);
  }
  expect_match(mm.vm());
  ASSERT_TRUE(mm.Munmap(*va, kLen).ok());
  EXPECT_EQ(mm.vm().addr_space().ResidentPagesFast(), 0u);
  expect_match(mm.vm());
}

}  // namespace
}  // namespace cortenmm
