// Target ISA selection for the MMU format. All supported ISAs use a 4-level
// radix-tree page table with 512 entries per level — the uniformity CortenMM's
// single-level-abstraction design rests on (§3.2, §4.4). The per-arch code is
// confined to the PTE codec in pte_x86.h / pte_riscv.h; everything above it is
// arch-neutral, mirroring how the paper hides ISA differences behind Rust
// traits (Figure 9) and how Table 5 counts the per-ISA porting cost.
#ifndef SRC_PT_ARCH_H_
#define SRC_PT_ARCH_H_

namespace cortenmm {

enum class Arch {
  kX86_64,
  kRiscvSv48,
};

}  // namespace cortenmm

#endif  // SRC_PT_ARCH_H_
