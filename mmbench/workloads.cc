// The three benchmark workloads against MakeMm(MmKind::kCortenAdv).
//
//   lifecycle-1t  one thread: mmap (allocator-chosen, 4-64 pages) -> write-fault
//                 every page -> write + read back one word per page through
//                 MmuSim -> mprotect half to R -> munmap; every 64 cycles an
//                 lmbench fork of the 4 MiB parent the space holds.
//   contended-4t  four threads map 16 KiB chunks at fixed, interleaved slots of
//                 one shared 256 MiB window (4 write faults + mprotect R each)
//                 and keep 2048 chunks resident per thread, unmapping the
//                 oldest. Its forks run in a burst after the loop (ForkBurst).
//   ring phase    the contended-4t op stream submitted in batches through each
//                 thread's ring, then DrainBarrier + Reap; run by the traced
//                 run of contended-4t for the ring layer's metrics.
//
// Each workload runs through the facade. In the traced run's split phase,
// every second step instead replays its ops through the layer functions the
// facade calls: AddrSpace::AllocVa/Lock/FreeVa, RCursor calls,
// BuddyAllocator::AllocFrame/FreeFrame, PhysMem::ZeroFrame and
// TlbGather::Flush, one span per call, each replayed op also timed whole.
#include <algorithm>
#include <cassert>
#include <deque>
#include <iterator>
#include <numeric>
#include <optional>
#include <utility>

#include "mmbench/bench.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/addr_space.h"
#include "src/pmm/buddy.h"
#include "src/pmm/page_desc.h"
#include "src/pmm/phys_mem.h"
#include "src/ring/mm_ring.h"
#include "src/sim/bench_util.h"
#include "src/sim/corten_vm.h"
#include "src/sim/mmu.h"
#include "src/tlb/gather.h"
#include "src/verif/wf_checker.h"

namespace mmbench {
namespace {

using cortenmm::Access;
using cortenmm::AddrSpace;
using cortenmm::CortenVm;
using cortenmm::ErrCode;
using cortenmm::kPageSize;
using cortenmm::MmCqe;
using cortenmm::MmInterface;
using cortenmm::MmOpCode;
using cortenmm::MmSqe;
using cortenmm::MmuSim;
using cortenmm::Perm;
using cortenmm::Pfn;
using cortenmm::RCursor;
using cortenmm::Result;
using cortenmm::Status;
using cortenmm::StatusTag;
using cortenmm::Vaddr;
using cortenmm::VaRange;
using cortenmm::VoidResult;

constexpr uint64_t kWordsPerPage = kPageSize / sizeof(uint64_t);

uint64_t Hash(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t state = a ^ (b * 0x9e3779b97f4a7c15ull) ^ (c * 0xc2b2ae3d27d4eb4full);
  return cortenmm::SplitMix64(state);
}

// The word a page carries: its offset and its value both come from |h|.
Vaddr WordVa(Vaddr page_va, uint64_t h) { return page_va + (h % kWordsPerPage) * 8; }

CortenVm& AsCorten(MmInterface& mm) {
  auto* corten = dynamic_cast<CortenVm*>(&mm);
  assert(corten != nullptr);
  return *corten;
}

// --- MmuSim calls, spanned in the traced facade phase -----------------------

bool SimWrite(Ctx& c, MmInterface& mm, Vaddr va, uint64_t value, int op = kNoOp) {
  uint64_t t0 = Now();
  VoidResult r = MmuSim::Write(mm, va, value);
  uint64_t t1 = Now();
  ++c.sim_accesses;
  if (c.tr != nullptr) {
    c.tr->Span(kSimAccess, op, t0, t1);
  }
  return r.ok();
}

bool SimRead(Ctx& c, MmInterface& mm, Vaddr va, uint64_t* out, int op = kNoOp) {
  uint64_t t0 = Now();
  VoidResult r = MmuSim::Read(mm, va, out);
  uint64_t t1 = Now();
  ++c.sim_accesses;
  if (c.tr != nullptr) {
    c.tr->Span(kSimAccess, op, t0, t1);
  }
  return r.ok();
}

// Reads |va| and counts a failed data check against |op| if it does not hold
// |want|.
void CheckWord(Ctx& c, MmInterface& mm, Vaddr va, uint64_t want, const char* what,
               int op = kNoOp) {
  uint64_t got = 0;
  if (!SimRead(c, mm, va, &got, op) || got != want) {
    c.Fail(std::string("data check failed: ") + what);
  }
}

// --- Executing the op stream -------------------------------------------------

// The synchronous ops of the op stream. |pfn| receives the frame a fault
// mapped (replay only; the facade does not expose it).
class Exec {
 public:
  virtual ~Exec() = default;
  virtual Result<Vaddr> Mmap(Ctx& c, uint64_t len) = 0;
  virtual bool MmapAt(Ctx& c, Vaddr va, uint64_t len) = 0;
  virtual bool Fault(Ctx& c, Vaddr page, Pfn* pfn) = 0;
  virtual bool ProtectR(Ctx& c, Vaddr va, uint64_t len) = 0;
  virtual bool Munmap(Ctx& c, Vaddr va, uint64_t len, const Pfn* pfns, size_t npfns) = 0;
};

class FacadeExec final : public Exec {
 public:
  explicit FacadeExec(MmInterface& mm) : mm_(mm) {}

  Result<Vaddr> Mmap(Ctx& c, uint64_t len) override {
    ++c.attempted;
    uint64_t t0 = Now();
    Result<Vaddr> r = mm_.MmapAnon(len, Perm::RW());
    uint64_t t1 = Now();
    if (!r.ok()) {
      c.Fail("mmap failed");
      return r;
    }
    c.Done(kMmap, t0, t1);
    return r;
  }
  bool MmapAt(Ctx& c, Vaddr va, uint64_t len) override {
    ++c.attempted;
    uint64_t t0 = Now();
    Result<Vaddr> r = mm_.MmapAnon(cortenmm::MmapArgs::At(va, len, Perm::RW()));
    uint64_t t1 = Now();
    if (!r.ok() || *r != va) {
      c.Fail("fixed mmap failed");
      return false;
    }
    c.Done(kMmap, t0, t1);
    return true;
  }
  bool Fault(Ctx& c, Vaddr page, Pfn*) override {
    ++c.attempted;
    uint64_t t0 = Now();
    VoidResult r = mm_.HandleFault(page, Access::kWrite);
    uint64_t t1 = Now();
    if (!r.ok()) {
      c.Fail("write fault failed");
      return false;
    }
    c.Done(kFault, t0, t1);
    return true;
  }
  bool ProtectR(Ctx& c, Vaddr va, uint64_t len) override {
    ++c.attempted;
    uint64_t t0 = Now();
    VoidResult r = mm_.Mprotect(va, len, Perm::R());
    uint64_t t1 = Now();
    if (!r.ok()) {
      c.Fail("mprotect failed");
      return false;
    }
    c.Done(kMprotect, t0, t1);
    return true;
  }
  bool Munmap(Ctx& c, Vaddr va, uint64_t len, const Pfn*, size_t) override {
    ++c.attempted;
    uint64_t t0 = Now();
    VoidResult r = mm_.Munmap(va, len);
    uint64_t t1 = Now();
    if (!r.ok()) {
      c.Fail("munmap failed");
      return false;
    }
    c.Done(kMunmap, t0, t1);
    return true;
  }

 private:
  MmInterface& mm_;
};

// Replays ops through the layer functions VmSpace calls, one span per call.
//
// Frame frees happen inside the cursor's release (or a later LATR tick), out
// of the benchmark's reach. To time BuddyAllocator::FreeFrame, the replay
// keeps one extra reference on every frame it maps; once the core has dropped
// the mapping's reference, the replay's own DropFrameRef is the call that
// frees the frame. A free that happens right after the op's release stands in
// for the free the real op does inside its release and is charged to the op;
// a frame whose lazy shootdown is still unacknowledged is freed later and
// charged to no op, as the real free would run in a later tick.
class LayerExec final : public Exec {
 public:
  LayerExec(MmInterface& mm, int threads)
      : space_(AsCorten(mm).vm().addr_space()), lanes_(threads) {}

  Result<Vaddr> Mmap(Ctx& c, uint64_t len) override {
    ++c.attempted;
    uint64_t t0 = Now();
    Result<Vaddr> va = space_.AllocVa(len);
    Span(c, kVaAlloc, kMmap, t0, Now());
    if (!va.ok()) {
      c.Fail("replay AllocVa failed");
      return va;
    }
    VaRange range(*va, *va + len);
    if (!Txn(c, range, kMmap, [&](RCursor& cur) { return MarkIn(c, cur, range, kMmap); })) {
      space_.FreeVa(*va, len);
      return ErrCode::kNoMem;
    }
    Finish(c, kMmap, t0);
    return va;
  }
  bool MmapAt(Ctx& c, Vaddr va, uint64_t len) override {
    ++c.attempted;
    uint64_t start = Now();
    VaRange range(va, va + len);
    if (!Txn(c, range, kMmap, [&](RCursor& cur) { return MarkIn(c, cur, range, kMmap); })) {
      return false;
    }
    Finish(c, kMmap, start);
    return true;
  }
  bool Fault(Ctx& c, Vaddr page, Pfn* pfn) override {
    ++c.attempted;
    uint64_t start = Now();
    space_.NoteCpuActive(cortenmm::CurrentCpu());
    if (!Txn(c, VaRange(page, page + kPageSize), kFault,
             [&](RCursor& cur) { return FaultIn(c, cur, page, kFault, pfn); })) {
      return false;
    }
    Finish(c, kFault, start);
    return true;
  }
  bool ProtectR(Ctx& c, Vaddr va, uint64_t len) override {
    ++c.attempted;
    uint64_t start = Now();
    VaRange range(va, va + len);
    bool ok = Txn(c, range, kMprotect,
                  [&](RCursor& cur) { return ProtectIn(c, cur, range, kMprotect); });
    ReFlush(c, range);
    if (!ok) {
      return false;
    }
    Finish(c, kMprotect, start);
    return true;
  }
  bool Munmap(Ctx& c, Vaddr va, uint64_t len, const Pfn* pfns, size_t npfns) override {
    ++c.attempted;
    uint64_t start = Now();
    VaRange range(va, va + len);
    if (!Txn(c, range, kMunmap, [&](RCursor& cur) { return UnmapIn(c, cur, range, kMunmap); })) {
      return false;
    }
    uint64_t t0 = Now();
    space_.FreeVa(va, len);
    Span(c, kVaFree, kMunmap, t0, Now());
    ReFlush(c, range);
    ReleaseFrames(c, pfns, npfns, kMunmap);
    Finish(c, kMunmap, start);
    return true;
  }

  // Drops every reference the replay still holds: queued frames and the
  // frames of pages still mapped (listed by the workload).
  void DropAll(const std::vector<Pfn>& still_mapped) {
    for (Lane& lane : lanes_) {
      for (Pfn pfn : lane.pending) {
        cortenmm::DropFrameRef(pfn);
      }
      lane.pending.clear();
    }
    for (Pfn pfn : still_mapped) {
      cortenmm::DropFrameRef(pfn);
    }
  }

 private:
  // Prepare + swap-block scan + Mark, as VmSpace::MmapAnonAt does.
  bool MarkIn(Ctx& c, RCursor& cursor, VaRange range, int op) {
    uint64_t t0 = Now();
    VoidResult r = cursor.Prepare(range, /*for_marks=*/true);
    if (r.ok()) {
      ScanSwap(cursor, range);
      r = cursor.Mark(range, Status::PrivateAnon(Perm::RW()));
    }
    Span(c, kMark, op, t0, Now());
    if (!r.ok()) {
      c.Fail("replay Mark failed");
    }
    return r.ok();
  }
  // Prepare + swap-block scan + Unmap, as VmSpace::Munmap does.
  bool UnmapIn(Ctx& c, RCursor& cursor, VaRange range, int op) {
    uint64_t t0 = Now();
    VoidResult r = cursor.Prepare(range, /*for_marks=*/false);
    if (r.ok()) {
      ScanSwap(cursor, range);
      r = cursor.Unmap(range);
    }
    Span(c, kUnmap, op, t0, Now());
    if (!r.ok()) {
      c.Fail("replay Unmap failed");
    }
    return r.ok();
  }
  bool ProtectIn(Ctx& c, RCursor& cursor, VaRange range, int op) {
    uint64_t t0 = Now();
    VoidResult r = cursor.Protect(range, Perm::R());
    Span(c, kProtect, op, t0, Now());
    if (!r.ok()) {
      c.Fail("replay Protect failed");
    }
    return r.ok();
  }
  // The demand-zero arm of the fault handler. The kMap span is the self time
  // of Query..Map: the frame allocation and zeroing nested in it are their
  // own spans.
  bool FaultIn(Ctx& c, RCursor& cursor, Vaddr page, int op, Pfn* pfn_out) {
    uint64_t body0 = Now();
    Status status = cursor.Query(page);
    if (status.tag != StatusTag::kPrivateAnon || !status.perm.write()) {
      c.Fail("replay fault found no writable demand-zero page");
      return false;
    }
    uint64_t t0 = Now();
    Result<Pfn> frame =
        cortenmm::BuddyAllocator::Instance().AllocFrame(cortenmm::FrameType::kAnon);
    uint64_t t1 = Now();
    Span(c, kFrameAlloc, op, t0, t1);
    if (!frame.ok()) {
      c.Fail("replay AllocFrame failed");
      return false;
    }
    uint64_t t2 = Now();
    cortenmm::PhysMem::Instance().ZeroFrame(*frame);
    uint64_t t3 = Now();
    Span(c, kZero, op, t2, t3);
    VoidResult mapped = cursor.Map(page, *frame, status.perm);
    uint64_t body1 = Now();
    // Query..Map spans five Now() calls; the nested spans' raw times hold two.
    uint64_t self = (body1 - body0) - (t1 - t0) - (t3 - t2);
    if (c.tr != nullptr) {
      uint64_t ns = ClockCorrected(self, 3);
      c.tr->AddCalls(kMap, ns);
      c.tr->AddPart(op, kMap, ns);
    }
    if (!mapped.ok()) {
      cortenmm::DropFrameRef(*frame);
      c.Fail("replay Map failed");
      return false;
    }
    cortenmm::AddFrameRef(*frame);  // The replay's own reference (see above).
    *pfn_out = *frame;
    return true;
  }
  // TlbGather::Flush over |range| again after the cursor flushed it: the same
  // batch shape, timed from outside the cursor and charged to no op. A lazy
  // flush leaves work on every other active CPU, so only one op in
  // kReFlushEvery is re-flushed to keep that extra work small.
  void ReFlush(Ctx& c, VaRange range) {
    if (lanes_[c.thread].reflush_tick++ % kReFlushEvery != 0) {
      return;
    }
    cortenmm::TlbGather gather;
    gather.AddRange(range);
    uint64_t t0 = Now();
    gather.Flush(space_.asid(), space_.active_cpus(), space_.options().tlb_policy, nullptr);
    Span(c, kTlbFlush, kNoOp, t0, Now());
  }
  // Drops the replay's reference on frames just unmapped: frees now those
  // whose mapping reference is gone, queues the rest behind an unacknowledged
  // lazy shootdown.
  void ReleaseFrames(Ctx& c, const Pfn* pfns, size_t n, int op) {
    std::deque<Pfn>& pending = lanes_[c.thread].pending;
    Pfn ready[64];
    size_t nready = 0;
    while (!pending.empty() && RefCount(pending.front()) == 1 && nready < std::size(ready)) {
      ready[nready++] = pending.front();
      pending.pop_front();
    }
    DropTimed(c, ready, nready, kNoOp);
    nready = 0;
    for (size_t i = 0; i < n; ++i) {
      if (RefCount(pfns[i]) == 1 && nready < std::size(ready)) {
        ready[nready++] = pfns[i];
      } else {
        pending.push_back(pfns[i]);
      }
    }
    DropTimed(c, ready, nready, op);
  }
  // Counts a replayed op and its whole time since |start|: the interval
  // every span charged to it lies in.
  static void Finish(Ctx& c, int op, uint64_t start) {
    uint64_t end = Now();
    ++c.ops_done;
    if (c.tr != nullptr) {
      ++c.tr->replay_ops[op];
      c.tr->replay_ns[op] += static_cast<double>(ClockCorrected(end - start));
    }
  }

  static void Span(Ctx& c, SpanId id, int op, uint64_t t0, uint64_t t1) {
    if (c.tr != nullptr) {
      c.tr->Span(id, op, t0, t1);
    }
  }
  static void ScanSwap(RCursor& cursor, VaRange range) {
    // VmSpace drops the swap blocks of swapped pages before replacing or
    // unmapping them; the scan is part of the transaction even when, as
    // here, nothing is swapped.
    cursor.ForEachStatus(range, [](VaRange, const Status& status) {
      assert(status.tag != StatusTag::kSwapped);
      (void)status;
    });
  }
  static uint32_t RefCount(Pfn pfn) {
    return cortenmm::PhysMem::Instance().Descriptor(pfn).refcount.load(
        std::memory_order_acquire);
  }
  // One span around a run of frees, so the clock is read twice per run
  // rather than per frame; pmm.frame_free_ns is its time per frame.
  static void DropTimed(Ctx& c, const Pfn* pfns, size_t n, int op) {
    if (n == 0) {
      return;
    }
    uint64_t t0 = Now();
    for (size_t i = 0; i < n; ++i) {
      cortenmm::DropFrameRef(pfns[i]);
    }
    uint64_t t1 = Now();
    if (c.tr != nullptr) {
      uint64_t ns = ClockCorrected(t1 - t0);
      c.tr->AddCalls(kFrameFree, ns, n);
      c.tr->AddPart(op, kFrameFree, ns);
    }
  }

  // One transaction: Lock (spanned), |body| on the cursor, release (spanned).
  template <typename Body>
  bool Txn(Ctx& c, VaRange range, int op, Body body) {
    std::optional<RCursor> cursor;
    uint64_t t0 = Now();
    cursor.emplace(space_.Lock(range));
    Span(c, kLock, op, t0, Now());
    bool ok = body(*cursor);
    t0 = Now();
    cursor.reset();
    Span(c, kRelease, op, t0, Now());
    return ok;
  }

  static constexpr uint64_t kReFlushEvery = 16;

  struct alignas(64) Lane {
    std::deque<Pfn> pending;  // Frames waiting for their lazy shootdown.
    uint64_t reflush_tick = 0;
  };

  AddrSpace& space_;
  std::vector<Lane> lanes_;  // Per thread.
};

// --- The 4 MiB fork parent ---------------------------------------------------

// A process image with a 4 MiB resident set (one written word per page), and
// the lmbench fork of it: Fork(), the child writes a few pages (copy-on-write
// faults) and checks COW isolation both ways, the child is destroyed.
class ForkParent {
 public:
  static constexpr uint64_t kPages = 1024;
  static constexpr int kChildWrites = 4;

  ForkParent(uint64_t seed, MmInterface* mm) : seed_(seed), mm_(mm) {}

  void Build(Ctx& c) {
    Result<Vaddr> va = mm_->MmapAnon(kPages * kPageSize, Perm::RW());
    if (!va.ok()) {
      c.Fail("fork parent mmap failed");
      return;
    }
    va_ = *va;
    for (uint64_t p = 0; p < kPages; ++p) {
      uint64_t h = Value(p);
      if (!MmuSim::Write(*mm_, WordVa(PageVa(p), h), h).ok()) {
        c.Fail("fork parent write failed");
      }
    }
  }

  // The fork's latency covers Fork(), the child's copy-on-write faults and
  // writes, and the child's destruction; the checks in between are the
  // benchmark's reads, not the child's work, and are left out of it.
  void ForkOnce(Ctx& c, cortenmm::Rng& rng, uint64_t round) {
    ++c.attempted;
    uint64_t start = Now();
    std::unique_ptr<MmInterface> child = mm_->Fork();
    Span(c, kForkClone, start, Now());
    if (child == nullptr) {
      c.Fail("fork failed");
      return;
    }
    uint64_t pages[kChildWrites];
    uint64_t values[kChildWrites];
    bool written[kChildWrites];
    for (int k = 0; k < kChildWrites; ++k) {
      do {
        pages[k] = rng.Below(kPages);
      } while (std::find(pages, pages + k, pages[k]) != pages + k);
      values[k] = Hash(seed_, round, k) | 1;  // Odd: never a parent value by chance.
      uint64_t t0 = Now();
      VoidResult r = child->HandleFault(PageVa(pages[k]), Access::kWrite);
      Span(c, kCowFault, t0, Now());
      written[k] = r.ok() && SimWrite(c, *child, WordVa(PageVa(pages[k]), Value(pages[k])),
                                      values[k], kFork);
    }
    uint64_t checks_start = Now();
    for (int k = 0; k < kChildWrites; ++k) {
      Vaddr word = WordVa(PageVa(pages[k]), Value(pages[k]));
      if (!written[k]) {
        c.Fail("child copy-on-write fault failed");
        continue;
      }
      CheckWord(c, *child, word, values[k], "child reads its own write");
      if (values[k] != Value(pages[k])) {
        CheckWord(c, *mm_, word, Value(pages[k]), "parent never sees the child's write");
      }
    }
    uint64_t q = rng.Below(kPages);
    if (std::find(pages, pages + kChildWrites, q) == pages + kChildWrites) {
      CheckWord(c, *child, WordVa(PageVa(q), Value(q)), Value(q),
                "child sees the parent's pre-fork data");
    }
    uint64_t t0 = Now();
    child.reset();
    uint64_t end = Now();
    Span(c, kForkTeardown, t0, end);
    c.Done(kFork, start, end - (t0 - checks_start));
  }

  void ReadBack(Ctx& c) {
    if (va_ == 0) {
      return;
    }
    for (uint64_t p = 0; p < kPages; ++p) {
      CheckWord(c, *mm_, WordVa(PageVa(p), Value(p)), Value(p), "fork parent read-back");
    }
  }

  Vaddr va() const { return va_; }

 private:
  static void Span(Ctx& c, SpanId id, uint64_t t0, uint64_t t1) {
    if (c.tr != nullptr) {
      c.tr->Span(id, kFork, t0, t1);
    }
  }
  Vaddr PageVa(uint64_t p) const { return va_ + p * kPageSize; }
  uint64_t Value(uint64_t p) const { return Hash(seed_, 0xf02c, p); }

  uint64_t seed_;
  MmInterface* mm_;
  Vaddr va_ = 0;
};

void CheckSpace(Ctx& c, MmInterface& mm, const char* what) {
  cortenmm::WfReport report = cortenmm::CheckWellFormed(AsCorten(mm).vm().addr_space());
  if (!report.ok) {
    c.Fail(std::string(what) + " page table not well formed: " + report.first_error);
  }
}

PtMetaSample SampleWalk(MmInterface& mm) {
  PtMetaSample s;
  s.pt_bytes = static_cast<double>(mm.PtBytes());
  s.meta_bytes = static_cast<double>(mm.MetaBytes());
  s.resident_bytes = static_cast<double>(
      AsCorten(mm).vm().addr_space().ResidentPagesFast() * kPageSize);
  return s;
}

// --- lifecycle-1t --------------------------------------------------------------

class Lifecycle final : public Workload {
 public:
  static constexpr int kForkEvery = 64;
  static constexpr int kWarmupCycles = 16384;

  Lifecycle(uint64_t seed) : seed_(seed), rng_(seed) {}

  int threads() const override { return 1; }

  void Setup() override {
    mm_ = cortenmm::MakeMm(cortenmm::MmKind::kCortenAdv);
    Ctx c;
    parent_ = std::make_unique<ForkParent>(seed_, mm_.get());
    parent_->Build(c);
    setup_failures_ = c.failed;
    facade_ = std::make_unique<FacadeExec>(*mm_);
  }

  void StartSplit() override { layer_ = std::make_unique<LayerExec>(*mm_, 1); }

  void ForkBurst(Ctx&, uint64_t) override {}  // Step forks every kForkEvery cycles.

  // Allocator-chosen placement leaves emptied leaf PT pages behind, so the
  // space's page table keeps growing for the first ~10k cycles (6 PT pages at
  // set-up, ~40 after 16k cycles, creeping towards ~47 by 130k). The warm-up
  // runs through the steep part so the measured loop starts near its steady
  // state.
  void Warmup(Ctx& c) override {
    c.failed += setup_failures_;
    setup_failures_ = 0;
    for (int i = 0; i < kWarmupCycles; ++i) {
      Step(c);
    }
  }

  void Step(Ctx& c) override {
    Exec* exec = layer_ != nullptr && cycle_ % 2 == 1 ? static_cast<Exec*>(layer_.get())
                                                      : facade_.get();
    uint64_t n = rng_.Range(4, 65);
    uint64_t len = n * kPageSize;
    Result<Vaddr> va = exec->Mmap(c, len);
    if (va.ok()) {
      Pfn pfns[64] = {};
      bool faulted[64] = {};
      for (uint64_t p = 0; p < n; ++p) {
        faulted[p] = exec->Fault(c, *va + p * kPageSize, &pfns[p]);
      }
      for (uint64_t p = 0; p < n; ++p) {
        uint64_t h = Hash(seed_, cycle_, p);
        if (faulted[p] && !SimWrite(c, *mm_, WordVa(*va + p * kPageSize, h), h)) {
          c.Fail("lifecycle write failed");
        }
      }
      for (uint64_t p = 0; p < n; ++p) {
        uint64_t h = Hash(seed_, cycle_, p);
        if (faulted[p]) {
          CheckWord(c, *mm_, WordVa(*va + p * kPageSize, h), h, "lifecycle read-back");
        }
      }
      if (c.rec != nullptr && cycle_ % kForkEvery == kForkEvery / 2) {
        samples_.push_back(SampleWalk(*mm_));
      }
      exec->ProtectR(c, *va, (n / 2) * kPageSize);
      uint64_t h0 = Hash(seed_, cycle_, 0);
      if (faulted[0]) {
        CheckWord(c, *mm_, WordVa(*va, h0), h0, "lifecycle read-back after mprotect");
      }
      exec->Munmap(c, *va, len, pfns, n);
    }
    if (++cycle_ % kForkEvery == 0) {
      parent_->ForkOnce(c, rng_, cycle_);
    }
  }

  void Teardown(Ctx& c) override {
    parent_->ReadBack(c);
    CheckSpace(c, *mm_, "lifecycle");
    if (layer_ != nullptr) {
      layer_->DropAll({});
    }
    parent_.reset();
    mm_.reset();
  }

  const std::vector<PtMetaSample>& pt_meta_samples() const override { return samples_; }

 private:
  uint64_t seed_;
  cortenmm::Rng rng_;
  uint64_t cycle_ = 0;
  uint64_t setup_failures_ = 0;
  std::unique_ptr<MmInterface> mm_;
  std::unique_ptr<ForkParent> parent_;
  std::unique_ptr<FacadeExec> facade_;
  std::unique_ptr<LayerExec> layer_;  // Set by StartSplit.
  std::vector<PtMetaSample> samples_;
};

// --- contended-4t and its ring phase -------------------------------------------

// The shared-window layout of contended-4t and its ring phase (the paper's Table 3
// high-contention shape): 16 KiB chunks, thread t owning every 4th slot of a
// 256 MiB window at 1 GiB, each thread visiting its 4096 slots in a seeded
// order and keeping its last 2048 chunks resident.
class SharedWindow : public Workload {
 public:
  static constexpr int kThreads = 4;
  static constexpr uint64_t kChunkPages = 4;
  static constexpr uint64_t kChunk = kChunkPages * kPageSize;
  static constexpr uint64_t kResident = 2048;   // Chunks resident per thread.
  static constexpr uint64_t kSlots = 4096;      // Slots per thread.
  static constexpr Vaddr kBase = 1ull << 30;
  static constexpr uint64_t kSampleEvery = 256;  // Chunks between pt/meta samples.

  explicit SharedWindow(uint64_t seed) : seed_(seed) {
    for (int t = 0; t < kThreads; ++t) {
      Lane& lane = lanes_[t];
      lane.perm.resize(kSlots);
      std::iota(lane.perm.begin(), lane.perm.end(), 0u);
      cortenmm::Rng rng(Hash(seed, 0x5107, t));
      for (uint64_t i = kSlots - 1; i > 0; --i) {
        std::swap(lane.perm[i], lane.perm[rng.Below(i + 1)]);
      }
      lane.pfns.assign(kResident * kChunkPages, 0);
    }
  }

  int threads() const override { return kThreads; }

  void Setup() override {
    mm_ = cortenmm::MakeMm(cortenmm::MmKind::kCortenAdv);
    Ctx c;
    fork_mm_ = cortenmm::MakeMm(cortenmm::MmKind::kCortenAdv);
    parent_ = std::make_unique<ForkParent>(seed_, fork_mm_.get());
    parent_->Build(c);
    setup_failures_ = c.failed;
    facade_ = std::make_unique<FacadeExec>(*mm_);
    cortenmm::StatsDomain& stats = cortenmm::GlobalStats();
    pt_base_live_ = LivePtPages(stats);
    pt_base_bytes_ = static_cast<double>(mm_->PtBytes());
  }

  // Chunks from each thread's next one on are split (see Replayed).
  void StartSplit() override {
    layer_ = std::make_unique<LayerExec>(*mm_, kThreads);
    for (Lane& lane : lanes_) {
      lane.split_from = lane.next;
    }
  }

  // The forks of a 4 MiB parent in a space of its own. Run inside the
  // churn, each fork's teardown waits out an RCU grace period of all four
  // busy threads, so a host preempting any one of them stalls it for
  // milliseconds; run back to back while the other threads wait, they time
  // fork itself on the memory state the churn left.
  void ForkBurst(Ctx& c, uint64_t n) override {
    for (uint64_t i = 0; i < n; ++i) {
      parent_->ForkOnce(c, fork_rng_, fork_round_++);
    }
  }

  void Warmup(Ctx& c) override {
    if (c.thread == 0) {
      c.failed += setup_failures_;
      setup_failures_ = 0;
    }
    while (lanes_[c.thread].next < 3 * kResident) {
      Step(c);
    }
  }

  void Teardown(Ctx& c) override {
    std::vector<Pfn> still_mapped;
    for (int t = 0; t < kThreads; ++t) {
      const Lane& lane = lanes_[t];
      uint64_t first = lane.next > kResident ? lane.next - kResident : 0;
      for (uint64_t chunk = first; chunk < lane.next; ++chunk) {
        if (lane.written_through <= chunk) {
          continue;  // Never written: its mmap failed, already counted.
        }
        ReadBack(c, t, chunk);
      }
      for (uint64_t chunk = first; chunk < lane.next; ++chunk) {
        if (Replayed(t, chunk)) {
          const Pfn* pfns = ChunkPfns(t, chunk);
          still_mapped.insert(still_mapped.end(), pfns, pfns + kChunkPages);
        }
      }
    }
    CheckSpace(c, *mm_, "shared window");
    parent_->ReadBack(c);
    CheckSpace(c, *fork_mm_, "fork parent");
    if (layer_ != nullptr) {
      layer_->DropAll(still_mapped);
    }
    mm_.reset();
    parent_.reset();
    fork_mm_.reset();
  }

  const std::vector<PtMetaSample>& pt_meta_samples() const override { return samples_; }

 protected:
  struct alignas(64) Lane {
    std::vector<uint32_t> perm;
    std::vector<Pfn> pfns;       // Frames of the resident chunks (replay only).
    uint64_t next = 0;           // Next chunk to map.
    uint64_t split_from = ~uint64_t{0};  // First chunk of the split phase.
    uint64_t written_through = 0;  // Chunks below this have their words written.
  };

  // Whether thread |t|'s |chunk| -- its mmap, faults, mprotect and later
  // munmap -- is replayed through the layer functions.
  bool Replayed(int t, uint64_t chunk) const {
    return chunk >= lanes_[t].split_from && chunk % 2 == 1;
  }
  Exec& ExecFor(int t, uint64_t chunk) {
    return Replayed(t, chunk) ? static_cast<Exec&>(*layer_) : *facade_;
  }

  Vaddr ChunkVa(int t, uint64_t chunk) const {
    return kBase + (static_cast<uint64_t>(lanes_[t].perm[chunk % kSlots]) * kThreads + t) * kChunk;
  }
  uint64_t WordHash(int t, uint64_t chunk, uint64_t k) const {
    return Hash(seed_, (static_cast<uint64_t>(t) << 40) | chunk, k);
  }
  Pfn* ChunkPfns(int t, uint64_t chunk) {
    return &lanes_[t].pfns[(chunk % kResident) * kChunkPages];
  }

  void WriteChunk(Ctx& c, int t, uint64_t chunk) {
    Vaddr va = ChunkVa(t, chunk);
    for (uint64_t k = 0; k < kChunkPages; ++k) {
      uint64_t h = WordHash(t, chunk, k);
      if (!SimWrite(c, *mm_, WordVa(va + k * kPageSize, h), h)) {
        c.Fail("chunk write failed");
      }
    }
    lanes_[t].written_through = chunk + 1;
  }
  void ReadBack(Ctx& c, int t, uint64_t chunk) {
    Vaddr va = ChunkVa(t, chunk);
    for (uint64_t k = 0; k < kChunkPages; ++k) {
      uint64_t h = WordHash(t, chunk, k);
      CheckWord(c, *mm_, WordVa(va + k * kPageSize, h), h, "chunk read-back");
    }
  }

  // The shared space's PT pages cannot be walked while other threads mutate
  // it, so thread 0 samples them from the PT page counters: pages allocated
  // minus pages freed since set-up, plus the walked count at set-up. PT
  // pages still waiting out their RCU grace period count too: memory the
  // system does hold.
  void MaybeSample(const Ctx& c, uint64_t chunk) {
    if (c.rec == nullptr || c.thread != 0 || chunk % kSampleEvery != 0) {
      return;
    }
    PtMetaSample s;
    double live = LivePtPages(cortenmm::GlobalStats());
    s.pt_bytes = pt_base_bytes_ + (live - pt_base_live_) * static_cast<double>(kPageSize);
    s.meta_bytes = static_cast<double>(mm_->MetaBytes());
    s.resident_bytes = static_cast<double>(
        AsCorten(*mm_).vm().addr_space().ResidentPagesFast() * kPageSize);
    samples_.push_back(s);
  }

  static double LivePtPages(const cortenmm::StatsDomain& stats) {
    return static_cast<double>(stats.Total(cortenmm::Counter::kPtPagesAllocated)) -
           static_cast<double>(stats.Total(cortenmm::Counter::kPtPagesFreed));
  }

  uint64_t seed_;
  uint64_t setup_failures_ = 0;
  std::unique_ptr<MmInterface> mm_;
  std::unique_ptr<FacadeExec> facade_;
  std::unique_ptr<LayerExec> layer_;  // Set by StartSplit.
  Lane lanes_[kThreads];
  std::unique_ptr<MmInterface> fork_mm_;  // The 4 MiB fork parent's space.
  std::unique_ptr<ForkParent> parent_;
  cortenmm::Rng fork_rng_{Hash(seed_, 0xf0f0, 0)};
  uint64_t fork_round_ = 0;
  std::vector<PtMetaSample> samples_;
  double pt_base_live_ = 0;
  double pt_base_bytes_ = 0;
};

class Contended final : public SharedWindow {
 public:
  using SharedWindow::SharedWindow;

  void Step(Ctx& c) override {
    int t = c.thread;
    Lane& lane = lanes_[t];
    uint64_t chunk = lane.next++;
    if (chunk >= kResident) {
      uint64_t old = chunk - kResident;
      ReadBack(c, t, old);
      ExecFor(t, old).Munmap(c, ChunkVa(t, old), kChunk, ChunkPfns(t, old), kChunkPages);
    }
    Exec& exec = ExecFor(t, chunk);
    Vaddr va = ChunkVa(t, chunk);
    if (!exec.MmapAt(c, va, kChunk)) {
      return;
    }
    Pfn* pfns = ChunkPfns(t, chunk);
    for (uint64_t k = 0; k < kChunkPages; ++k) {
      exec.Fault(c, va + k * kPageSize, &pfns[k]);
    }
    WriteChunk(c, t, chunk);
    MaybeSample(c, chunk);
    exec.ProtectR(c, va, kChunk);
  }
};

// The contended-4t stream in ring batches. A batch covers kBatchChunks
// chunks: the previous batch's mprotects (its words are written by now), then
// per chunk the munmap of its oldest chunk, the fixed mmap and 4 faults --
// 28 ops, inside the ring's 32-op fusion bound.
class RingBatched final : public SharedWindow {
 public:
  static constexpr uint64_t kBatchChunks = 4;
  static constexpr size_t kMaxBatchOps = kBatchChunks * (2 + kChunkPages) + kBatchChunks;
  static_assert(kMaxBatchOps <= cortenmm::MmRing::kMaxFusedOps);

  using SharedWindow::SharedWindow;

  void Step(Ctx& c) override {
    int t = c.thread;
    Lane& lane = lanes_[t];
    uint64_t first = lane.next;
    for (uint64_t chunk = first; chunk < first + kBatchChunks; ++chunk) {
      if (chunk >= kResident) {
        ReadBack(c, t, chunk - kResident);
      }
    }
    Batch batch;
    for (uint64_t chunk = first >= kBatchChunks ? first - kBatchChunks : first; chunk < first;
         ++chunk) {
      batch.Add(MmOpCode::kMprotect, ChunkVa(t, chunk), kChunk, chunk, 0);
    }
    for (uint64_t chunk = first; chunk < first + kBatchChunks; ++chunk) {
      if (chunk >= kResident) {
        batch.Add(MmOpCode::kMunmap, ChunkVa(t, chunk - kResident), kChunk, chunk - kResident,
                  0);
      }
      batch.Add(MmOpCode::kMmapAnonFixed, ChunkVa(t, chunk), kChunk, chunk, 0);
      for (uint64_t k = 0; k < kChunkPages; ++k) {
        batch.Add(MmOpCode::kFault, ChunkVa(t, chunk) + k * kPageSize, kPageSize, chunk, k);
      }
    }
    lane.next = first + kBatchChunks;
    RunThroughRing(c, batch);
    for (uint64_t chunk = first; chunk < first + kBatchChunks; ++chunk) {
      WriteChunk(c, t, chunk);
      MaybeSample(c, chunk);
    }
  }

 private:
  struct BatchOp {
    MmSqe sqe;
    uint64_t chunk = 0;
    uint64_t page = 0;
  };
  struct Batch {
    BatchOp ops[kMaxBatchOps];
    size_t n = 0;
    void Add(MmOpCode op, Vaddr va, uint64_t len, uint64_t chunk, uint64_t page) {
      BatchOp& b = ops[n];
      b.sqe = MmSqe();
      b.sqe.op = op;
      b.sqe.va = va;
      b.sqe.len = len;
      b.sqe.perm = op == MmOpCode::kMprotect ? Perm::R() : Perm::RW();
      b.sqe.access = Access::kWrite;
      b.sqe.user_data = n;
      b.chunk = chunk;
      b.page = page;
      ++n;
    }
  };
  // A timed ring call: which kind, and when.
  struct Call {
    SpanId id;
    uint64_t start;
    uint64_t end;
  };

  static int OpOf(MmOpCode code) {
    switch (code) {
      case MmOpCode::kMmapAnonFixed:
        return kMmap;
      case MmOpCode::kMunmap:
        return kMunmap;
      case MmOpCode::kMprotect:
        return kMprotect;
      default:
        return kFault;
    }
  }

  // Submit every op, DrainBarrier, Reap every completion. An op's latency
  // runs from the start of its Submit to the end of the Reap that returned
  // it; its ring layers are the Submit, DrainBarrier and Reap calls inside
  // that interval, so what is left over is the benchmark's own loop time.
  void RunThroughRing(Ctx& c, const Batch& batch) {
    uint64_t submitted_at[kMaxBatchOps];
    uint64_t reaped_at[kMaxBatchOps] = {};
    bool reaped[kMaxBatchOps] = {};
    Call calls[4 * kMaxBatchOps + 8];
    size_t ncalls = 0;
    size_t outstanding = 0;
    auto record = [&](SpanId id, uint64_t t0, uint64_t t1) {
      if (ncalls < std::size(calls)) {
        calls[ncalls++] = Call{id, t0, t1};
      }
    };
    auto reap_all = [&] {
      MmCqe cqe;
      for (;;) {
        uint64_t t0 = Now();
        bool got = mm_->Reap(&cqe);
        uint64_t t1 = Now();
        if (!got) {
          break;
        }
        record(kReap, t0, t1);
        size_t i = cqe.user_data;
        if (i >= batch.n || reaped[i]) {
          c.Fail("ring completion for an unknown op");
          continue;
        }
        reaped[i] = true;
        reaped_at[i] = t1;
        --outstanding;
        const MmSqe& sqe = batch.ops[i].sqe;
        if (cqe.err != ErrCode::kOk ||
            (sqe.op == MmOpCode::kMmapAnonFixed && cqe.va != sqe.va)) {
          c.Fail(std::string("ring op failed: ") + cortenmm::MmOpCodeName(sqe.op));
        }
      }
    };
    for (size_t i = 0; i < batch.n; ++i) {
      ++c.attempted;
      for (;;) {
        uint64_t t0 = Now();
        bool accepted = mm_->Submit(batch.ops[i].sqe);
        uint64_t t1 = Now();
        record(kSubmit, t0, t1);
        if (accepted) {
          submitted_at[i] = t0;
          ++outstanding;
          break;
        }
        // Backpressure: complete what is queued, then retry the submit.
        uint64_t b0 = Now();
        mm_->DrainBarrier();
        record(kDrainBarrier, b0, Now());
        reap_all();
      }
    }
    while (outstanding > 0) {
      uint64_t t0 = Now();
      mm_->DrainBarrier();
      record(kDrainBarrier, t0, Now());
      reap_all();
    }
    for (size_t i = 0; i < batch.n; ++i) {
      int op = OpOf(batch.ops[i].sqe.op);
      c.Done(op, submitted_at[i], reaped_at[i]);
      if (c.tr == nullptr) {
        continue;
      }
      for (size_t k = 0; k < ncalls; ++k) {
        const Call& call = calls[k];
        if (call.start >= submitted_at[i] && call.end <= reaped_at[i]) {
          c.tr->AddPart(op, call.id, ClockCorrected(call.end - call.start));
        }
      }
    }
    if (c.tr != nullptr) {
      for (size_t k = 0; k < ncalls; ++k) {
        c.tr->AddCalls(calls[k].id, ClockCorrected(calls[k].end - calls[k].start));
      }
    }
  }

};

}  // namespace

bool IsWorkloadName(const std::string& name) {
  return name == "lifecycle-1t" || name == "contended-4t";
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "lifecycle-1t") {
    return std::make_unique<Lifecycle>(seed);
  }
  if (name == "contended-4t") {
    return std::make_unique<Contended>(seed);
  }
  return nullptr;
}

std::unique_ptr<Workload> MakeRingPhase(uint64_t seed) {
  return std::make_unique<RingBatched>(seed);
}

}  // namespace mmbench
