#include "src/pt/page_table.h"

#include <cassert>
#include <utility>

#include "src/common/stats.h"
#include "src/pmm/buddy.h"
#include "src/pmm/page_desc.h"
#include "src/pmm/phys_mem.h"

namespace cortenmm {
namespace {

std::atomic<uint64_t>* SlotPtr(Pfn pt_page, uint64_t index) {
  assert(index < kPtesPerPage);
  auto* slots =
      reinterpret_cast<std::atomic<uint64_t>*>(PhysMem::Instance().FrameData(pt_page));
  static_assert(sizeof(std::atomic<uint64_t>) == sizeof(uint64_t));
  return &slots[index];
}

}  // namespace

Result<PageTable> PageTable::Create(Arch arch) {
  PageTable pt;
  pt.arch_ = arch;
  Result<Pfn> root = pt.AllocPtPage(kPtLevels);
  if (!root.ok()) {
    return root.error();
  }
  pt.root_ = *root;
  return pt;
}

PageTable::PageTable(Arch arch) : arch_(arch) {
  // *Create(...) aborts loudly on kNoMem (Result's always-fatal accessor).
  *this = std::move(*Create(arch));
}

PageTable::~PageTable() {
  if (root_ == kInvalidPfn) {
    return;  // Rootless (moved-from or failed Create staging value).
  }
  // Free the whole radix tree. Data frames are the owner's responsibility;
  // only PT pages (and their metadata arrays) are released here.
  ForEachPtPagePostOrder(root_, kPtLevels, [](Pfn pfn, int level) {
    (void)level;
    FreePtPage(pfn);
  });
}

Pte PageTable::LoadEntry(Pfn pt_page, uint64_t index) const {
  return Pte(SlotPtr(pt_page, index)->load(std::memory_order_acquire));
}

void PageTable::StoreEntry(Pfn pt_page, uint64_t index, Pte pte) {
  SlotPtr(pt_page, index)->store(pte.raw, std::memory_order_release);
}

bool PageTable::CasEntry(Pfn pt_page, uint64_t index, Pte expected, Pte desired) {
  uint64_t exp = expected.raw;
  return SlotPtr(pt_page, index)
      ->compare_exchange_strong(exp, desired.raw, std::memory_order_acq_rel,
                                std::memory_order_acquire);
}

Result<Pfn> PageTable::AllocPtPage(int level) {
  assert(level >= 1 && level <= kPtLevels);
  Result<Pfn> frame = BuddyAllocator::Instance().AllocZeroedFrame();
  if (!frame.ok()) {
    return frame;
  }
  PageDescriptor& desc = PhysMem::Instance().Descriptor(*frame);
  desc.type.store(FrameType::kPageTable, std::memory_order_relaxed);
  desc.pt_level = static_cast<uint8_t>(level);
  CountEvent(Counter::kPtPagesAllocated);
  return frame;
}

void PageTable::FreePtPage(Pfn pt_page) {
  PageDescriptor& desc = PhysMem::Instance().Descriptor(pt_page);
  if (PteMetaArray* meta = desc.meta.exchange(nullptr, std::memory_order_acq_rel)) {
    delete meta;
  }
  CountEvent(Counter::kPtPagesFreed);
  BuddyAllocator::Instance().FreeFrame(pt_page);
}

PageTable::WalkResult PageTable::Walk(Vaddr va) const {
  WalkResult result;
  Pfn page = root_;
  for (int level = kPtLevels; level >= 1; --level) {
    uint64_t index = PtIndex(va, level);
    Pte pte = LoadEntry(page, index);
    if (!PteIsPresent(arch_, pte)) {
      result.present = false;
      result.level = level;
      result.pt_page = page;
      result.index = index;
      return result;
    }
    if (PteIsLeaf(arch_, pte, level)) {
      result.present = true;
      result.pte = pte;
      result.level = level;
      result.pt_page = page;
      result.index = index;
      return result;
    }
    page = PtePfn(arch_, pte);
  }
  return result;  // Unreachable: level 1 entries are always leaves.
}

void PageTable::ForEachLeafIn(Pfn pt_page, int level, Vaddr page_va_base, VaRange range,
                              const std::function<void(Vaddr, Pte, int)>& visit) const {
  uint64_t entry_span = PtEntrySpan(level);
  uint64_t first = range.start > page_va_base ? (range.start - page_va_base) / entry_span : 0;
  Vaddr page_va_end = page_va_base + PtPageSpan(level);
  uint64_t last = kPtesPerPage - 1;
  if (range.end < page_va_end) {
    last = (range.end - 1 - page_va_base) / entry_span;
  }
  for (uint64_t i = first; i <= last; ++i) {
    Pte pte = LoadEntry(pt_page, i);
    if (!PteIsPresent(arch_, pte)) {
      continue;
    }
    Vaddr entry_va = page_va_base + i * entry_span;
    if (PteIsLeaf(arch_, pte, level)) {
      visit(entry_va, pte, level);
    } else {
      ForEachLeafIn(PtePfn(arch_, pte), level - 1, entry_va, range, visit);
    }
  }
}

void PageTable::ForEachLeaf(VaRange range,
                            const std::function<void(Vaddr, Pte, int)>& visit) const {
  if (range.empty()) {
    return;
  }
  ForEachLeafIn(root_, kPtLevels, 0, range, visit);
}

void PageTable::ForEachPtPagePostOrder(
    Pfn pt_page, int level, const std::function<void(Pfn, int)>& visit) const {
  if (level > 1) {
    for (uint64_t i = 0; i < kPtesPerPage; ++i) {
      Pte pte = LoadEntry(pt_page, i);
      if (PteIsPresent(arch_, pte) && !PteIsLeaf(arch_, pte, level)) {
        ForEachPtPagePostOrder(PtePfn(arch_, pte), level - 1, visit);
      }
    }
  }
  visit(pt_page, level);
}

uint64_t PageTable::CountPtPages() const {
  uint64_t count = 0;
  ForEachPtPagePostOrder(root_, kPtLevels, [&count](Pfn, int) { ++count; });
  return count;
}

}  // namespace cortenmm
