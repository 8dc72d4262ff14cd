#include "src/sim/mmu.h"

#include <atomic>
#include <cassert>

#include "src/common/backoff.h"
#include "src/common/stats.h"
#include "src/common/topology.h"
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"
#include "src/pt/page_table.h"
#include "src/tlb/shootdown.h"

namespace cortenmm {

// Inside MmuSim member definitions the unqualified name `Access` would find
// the member function, not the enum; alias it once here.
using AccessKind = Access;

namespace {

thread_local uint64_t tls_access_count = 0;

// Intel MPK check: PKRU bit 2k denies all data access for key k, bit 2k+1
// denies writes (Intel SDM Vol. 3A 4.6.2). Key 0 with a zero PKRU is the
// common no-restriction case.
bool PkruAllows(uint32_t pkru, int pkey, AccessKind access) {
  if (pkru == 0 || access == AccessKind::kExec) {
    return true;  // PKRU does not gate instruction fetches.
  }
  uint32_t bits = (pkru >> (2 * pkey)) & 3;
  if (bits & 1) {
    return false;  // Access-disable.
  }
  return !(access == AccessKind::kWrite && (bits & 2));
}

// Performs the data access against the simulated physical frame. Guest
// application threads may race on guest memory exactly as real programs race
// on RAM; relaxed atomic accesses give that the same semantics without being
// undefined behaviour in the simulator itself.
void DoData(Pfn pfn, Vaddr va, AccessKind access, uint64_t write_value, uint64_t* out) {
  std::byte* frame = PhysMem::Instance().FrameData(pfn);
  auto* word = reinterpret_cast<uint64_t*>(frame + (va & (kPageSize - 1)));
  std::atomic_ref<uint64_t> cell(*word);
  if (access == AccessKind::kWrite) {
    cell.store(write_value, std::memory_order_relaxed);
  } else if (out != nullptr) {
    *out = cell.load(std::memory_order_relaxed);
  }
}

// Charges the interconnect cost of touching a frame on a remote NUMA node: a
// bounded pause loop proportional to the topology's asymmetric cost delta
// (the software analog of the extra socket hops), plus the
// numa_remote_accesses counter. Local accesses cost nothing extra — local
// latency is the baseline every simulated access already pays.
void ChargeNumaCost(CpuId cpu, Pfn pfn) {
  const NodeTopology& topo = NodeTopology::Instance();
  if (topo.nodes() == 1) {
    return;
  }
  const int from = topo.NodeOfCpu(cpu);
  const int to = BuddyAllocator::Instance().NodeOfPfn(pfn);
  if (from == to) {
    return;
  }
  CountEvent(Counter::kNumaRemoteAccesses);
  const uint32_t spins = topo.RemotePenaltySpins(from, to);
  for (uint32_t i = 0; i < spins; ++i) {
    CpuRelax();
  }
}

}  // namespace

VoidResult MmuSim::Access(MmInterface& mm, Vaddr va, AccessKind access, uint64_t write_value,
                          uint64_t* out) {
  assert(IsAligned(va, sizeof(uint64_t)));
  CpuId cpu = CurrentCpu();
  mm.NoteCpuActive(cpu);
  if (++tls_access_count % kTickPeriod == 0) {
    TlbSystem::Instance().Tick(cpu);  // Timer-tick analog: pump lazy shootdowns.
  }

  Tlb& tlb = TlbSystem::Instance().CpuTlb(cpu);
  PageTable& pt = mm.PageTableFor(cpu);
  Arch arch = pt.arch();

  for (int attempt = 0; attempt < 16; ++attempt) {
    // 1. TLB.
    if (auto entry = tlb.Lookup(mm.asid(), va)) {
      Pte pte(entry->pte_raw);
      Perm perm = PtePerm(arch, pte);
      if (PermAllowsAccess(perm, access) &&
          PkruAllows(mm.Pkru(), PtePkey(arch, pte), access)) {
        Vaddr leaf_base = AlignDown(va, PtEntrySpan(entry->level));
        Pfn pfn = PtePfn(arch, pte) + ((va - leaf_base) >> kPageBits);
        ChargeNumaCost(cpu, pfn);
        DoData(pfn, va, access, write_value, out);
        return VoidResult();
      }
      // Permission violation through the TLB (e.g. COW write): drop the entry
      // and take the fault path, like hardware raising #PF.
      tlb.InvalidateRange(mm.asid(), VaRange(AlignDown(va, kPageSize),
                                             AlignDown(va, kPageSize) + kPageSize));
    }

    // 2. Hardware page walk.
    CountEvent(Counter::kTlbMisses);
    PageTable::WalkResult walk = pt.Walk(va);
    if (walk.present) {
      Perm perm = PtePerm(arch, walk.pte);
      if (PermAllowsAccess(perm, access) &&
          PkruAllows(mm.Pkru(), PtePkey(arch, walk.pte), access)) {
        // Set accessed/dirty the way the walker would. A CAS failure means a
        // racing kernel update; just proceed (the walk below retries anyway).
        Pte updated = PteWithAccessDirty(arch, walk.pte, access == AccessKind::kWrite);
        if (!(updated == walk.pte)) {
          pt.CasEntry(walk.pt_page, walk.index, walk.pte, updated);
        }
        tlb.Insert(mm.asid(), va, updated.raw, walk.level);
        Vaddr leaf_base = AlignDown(va, PtEntrySpan(walk.level));
        Pfn pfn = PtePfn(arch, walk.pte) + ((va - leaf_base) >> kPageBits);
        // A TLB miss walked the tree: the leaf PT page is a memory access
        // too, and it may live on a different node than the data frame.
        ChargeNumaCost(cpu, walk.pt_page);
        ChargeNumaCost(cpu, pfn);
        DoData(pfn, va, access, write_value, out);
        return VoidResult();
      }
    }

    // 3. Page fault upcall.
    VoidResult handled = mm.HandleFault(va, access);
    if (!handled.ok()) {
      return handled;  // SEGV or OOM surfaces to the "application".
    }
    // Retry the access (the fault handler mapped or upgraded the page).
  }
  return ErrCode::kAgain;  // Pathological livelock guard; never hit in practice.
}

VoidResult MmuSim::TouchRange(MmInterface& mm, Vaddr va, uint64_t len, bool write) {
  for (Vaddr page = AlignDown(va, kPageSize); page < va + len; page += kPageSize) {
    VoidResult r = Access(mm, page, write ? AccessKind::kWrite : AccessKind::kRead,
                          /*write_value=*/page);
    if (!r.ok()) {
      return r;
    }
  }
  return VoidResult();
}

}  // namespace cortenmm
