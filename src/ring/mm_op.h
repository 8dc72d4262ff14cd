// Fixed-size operation descriptors for the asynchronous batched MM interface
// (ROADMAP item 4): an io_uring-style vocabulary over the facade's operation
// set. A caller fills an MmSqe (submission queue entry), pushes it through
// MmInterface::Submit, and later reaps an MmCqe (completion queue entry)
// carrying the per-op Status. The descriptor is deliberately flat — no
// owning pointers, trivially copyable — so ring slots can be reused without
// destructor traffic and the combiner can batch-copy groups for fusion.
//
// This header depends only on common/, so both the facade and the core layer
// can speak MmSqe without a dependency cycle: the ring machinery itself lives
// in mm_ring.h and never includes core or sim headers.
#ifndef SRC_RING_MM_OP_H_
#define SRC_RING_MM_OP_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/common/types.h"

namespace cortenmm {

// The queued subset of the facade: the four fusable ops plus allocator-placed
// mmap. Other entry points (file mappings, msync, pkeys, swap-out, fork) are
// synchronous only.
enum class MmOpCode : uint8_t {
  kNop = 0,         // Completes immediately with kOk; useful for ring tests.
  kMmapAnon,        // len, perm; allocator-chosen address -> cqe.va.
  kMmapAnonFixed,   // va, len, perm (MAP_FIXED analog) -> cqe.va == va.
  kMunmap,          // va, len.
  kMprotect,        // va, len, perm.
  kFault,           // va, access (software-delivered page fault).
};

const char* MmOpCodeName(MmOpCode op);

// Submission queue entry. |user_data| is echoed verbatim in the completion,
// like io_uring's cookie: it is how a caller matches completions to requests
// when the drain reorders independent ops.
struct MmSqe {
  MmOpCode op = MmOpCode::kNop;
  Perm perm{};
  Access access = Access::kRead;
  Vaddr va = 0;
  uint64_t len = 0;
  uint64_t user_data = 0;
};

// Completion queue entry: the per-op Status of the paper's facade calls.
struct MmCqe {
  uint64_t user_data = 0;
  ErrCode err = ErrCode::kOk;
  Vaddr va = 0;  // Address-producing ops: where the mapping landed.
};

// Ops the drain may fuse into one transaction: they carry an explicit
// page-aligned target range, so the combiner can compute a bounding lock
// range up front. Allocator-placed mmap stays unfused: its effective range is
// unknown until the VA allocator picks it.
inline bool IsFusableOp(MmOpCode op) {
  switch (op) {
    case MmOpCode::kMmapAnonFixed:
    case MmOpCode::kMunmap:
    case MmOpCode::kMprotect:
    case MmOpCode::kFault:
      return true;
    default:
      return false;
  }
}

// The page-aligned VA range |sqe| operates on. Returns false when the op has
// no well-formed explicit range (not a fusable kind, unaligned base, zero or
// overflowing length) — such ops run as singletons through the synchronous
// path, which owns argument validation.
inline bool SqeRange(const MmSqe& sqe, VaRange* out) {
  if (!IsFusableOp(sqe.op)) {
    return false;
  }
  if (sqe.op == MmOpCode::kFault) {
    Vaddr page = AlignDown(sqe.va, kPageSize);
    *out = VaRange(page, page + kPageSize);
    return page < kVaLimit;
  }
  if (!IsAligned(sqe.va, kPageSize) || sqe.len == 0) {
    return false;
  }
  uint64_t len = AlignUp(sqe.len, kPageSize);
  if (sqe.va + len < sqe.va || sqe.va + len > kVaLimit) {
    return false;
  }
  *out = VaRange(sqe.va, sqe.va + len);
  return true;
}

}  // namespace cortenmm

#endif  // SRC_RING_MM_OP_H_
