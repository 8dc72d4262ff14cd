// Per-CPU software TLB. The simulated MMU consults it before walking the page
// table; the MM layers must invalidate it on unmap/protect, which is where the
// paper's TLB-shootdown optimizations (§4.5) enter the picture.
//
// The TLB is a small set-associative cache of leaf translations tagged by
// ASID (one per address space). A tiny spin lock per TLB makes remote
// invalidation safe; on real hardware that role is played by IPIs.
#ifndef SRC_TLB_TLB_H_
#define SRC_TLB_TLB_H_

#include <cstdint>
#include <optional>

#include "src/common/types.h"
#include "src/sync/spinlock.h"

namespace cortenmm {

using Asid = uint16_t;

struct TlbEntry {
  bool valid = false;
  Asid asid = 0;
  int level = 1;        // 1 = 4K, 2 = 2M, 3 = 1G translation.
  Vaddr va_base = 0;    // Aligned to the level's span.
  uint64_t pte_raw = 0;
  uint64_t stamp = 0;   // For LRU replacement within a set.
};

class Tlb {
 public:
  static constexpr int kSets = 64;
  static constexpr int kWays = 4;

  // Returns the cached leaf PTE raw value if present.
  std::optional<TlbEntry> Lookup(Asid asid, Vaddr va);
  void Insert(Asid asid, Vaddr va, uint64_t pte_raw, int level);

  void InvalidateRange(Asid asid, VaRange range);
  // Invalidates every entry of |asid| intersecting any of |ranges| in one
  // locked sweep — the per-target cost of a batched shootdown is one pass
  // over the TLB regardless of how many ranges the batch carries.
  void InvalidateRanges(Asid asid, const VaRange* ranges, size_t num_ranges);
  void InvalidateAsid(Asid asid);

  uint64_t lookups() const { return lookups_; }
  uint64_t hits() const { return hits_; }

 private:
  static int SetOf(Vaddr va) { return (va >> kPageBits) & (kSets - 1); }

  SpinLock lock_;
  TlbEntry sets_[kSets][kWays];
  uint64_t clock_ = 0;
  uint64_t lookups_ = 0;
  uint64_t hits_ = 0;
};

}  // namespace cortenmm

#endif  // SRC_TLB_TLB_H_
