// Shared types of the repository benchmark: the operation and span
// vocabularies, the per-thread recorders, and the workload interface.
//
// A run measures end-to-end op latency around facade calls (Recorder). A
// traced run additionally records spans (Tracer): around every facade, MmuSim
// and ring call the workload makes, and, in its split phase, around every
// layer function that a replay of every second step of the op stream calls.
// Spans are aggregated per thread in memory and summed when the run ends;
// nothing is probed inside src/.
#ifndef MMBENCH_BENCH_H_
#define MMBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mmbench/stats.h"
#include "src/obs/telemetry.h"

namespace mmbench {

inline uint64_t Now() { return cortenmm::TelemetryNowNanos(); }

// Facade operations whose latency the benchmark reports.
enum Op : int { kMmap = 0, kMunmap, kMprotect, kFault, kFork, kNumOps };
// Span owner for layer calls that belong to no single op (a fused ring
// transaction's lock and release, deferred frame frees).
inline constexpr int kNoOp = kNumOps;

inline const char* OpName(int op) {
  static const char* const kNames[] = {"mmap", "munmap", "mprotect", "fault", "fork", "none"};
  return kNames[op];
}

// Layer calls timed by the traced run, named as their metrics are.
enum SpanId : int {
  kVaAlloc = 0,   // AddrSpace::AllocVa
  kVaFree,        // AddrSpace::FreeVa
  kLock,          // AddrSpace::Lock
  kMark,          // RCursor::Prepare + ForEachStatus + Mark (mmap's transaction body)
  kUnmap,         // RCursor::Prepare + ForEachStatus + Unmap (munmap's)
  kProtect,       // RCursor::Protect
  kMap,           // RCursor::Query + Map (the fault's)
  kRelease,       // RCursor destructor: unlock + gathered flush + frees
  kFrameAlloc,    // BuddyAllocator::AllocFrame
  kFrameFree,     // BuddyAllocator::FreeFrame (through DropFrameRef)
  kZero,          // PhysMem::ZeroFrame
  kTlbFlush,      // TlbGather::Flush
  kSubmit,        // MmInterface::Submit
  kDrainBarrier,  // MmInterface::DrainBarrier
  kReap,          // MmInterface::Reap
  kSimAccess,     // MmuSim::Access on a resident page
  kForkClone,     // MmInterface::Fork
  kForkTeardown,  // destroying the forked child
  kCowFault,      // the child's copy-on-write MmInterface::HandleFault
  kNumSpans,
};

// End-to-end op latencies of one worker thread, and its completed ops per
// short wall-clock segment of the measured window.
class Recorder {
 public:
  void Start(uint64_t t0, uint64_t seg_ns, size_t max_segments) {
    t0_ = t0;
    seg_ns_ = seg_ns;
    seg_ops_.assign(max_segments, 0);
  }

  void Record(int op, uint64_t start, uint64_t end) {
    uint64_t seg = (end - t0_) / seg_ns_;
    if (seg >= seg_ops_.size()) {
      return;  // Past the last segment the run can have: not measured.
    }
    latency_[op].Record(end - start);
    ++seg_ops_[seg];
    count_[op].fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t count(int op) const { return count_[op].load(std::memory_order_relaxed); }
  const Hist& latency(int op) const { return latency_[op]; }
  uint64_t SegmentOps(size_t seg) const { return seg_ops_[seg]; }

 private:
  uint64_t t0_ = 0;
  uint64_t seg_ns_ = 1;
  Hist latency_[kNumOps];
  std::vector<uint64_t> seg_ops_;
  std::atomic<uint64_t> count_[kNumOps] = {};
};

// The cost of one Now() call, measured once at start-up. A span timed by two
// Now() calls reads about one call long with nothing inside it, so every span
// and traced op latency is recorded with it taken off (ClockCorrected).
inline uint64_t& ClockCostNs() {
  static uint64_t cost = 0;
  return cost;
}
inline uint64_t ClockCorrected(uint64_t ns, uint64_t clock_calls = 1) {
  uint64_t cost = clock_calls * ClockCostNs();
  return ns > cost ? ns - cost : 0;
}

// Span totals of one worker thread. |part| is the time each span kind took
// inside ops of each type, so an op type's layer split is part[op][s] divided
// by the number of ops of that type.
struct Tracer {
  double total[kNumSpans] = {};
  uint64_t calls[kNumSpans] = {};
  Hist lock;  // AddrSpace::Lock's distribution, for core.lock_p99_ns.
  double part[kNumOps + 1][kNumSpans] = {};
  uint64_t ops[kNumOps] = {};  // Facade or ring ops the phase completed.
  Hist op_latency[kNumOps];    // Their latencies.
  uint64_t replay_ops[kNumOps] = {};  // Ops replayed through the layer functions.
  double replay_ns[kNumOps] = {};     // Their whole time, each op timed end to end.

  double Mean(SpanId id) const { return Ratio(total[id], static_cast<double>(calls[id])); }

  // |n| calls of kind |id| that took |ns| together (already clock-corrected).
  void AddCalls(SpanId id, uint64_t ns, uint64_t n = 1) {
    total[id] += static_cast<double>(ns);
    calls[id] += n;
    if (id == kLock) {
      lock.Record(ns);
    }
  }
  void AddPart(int op, SpanId id, uint64_t ns) { part[op][id] += static_cast<double>(ns); }
  void Span(SpanId id, int op, uint64_t start, uint64_t end) {
    uint64_t ns = ClockCorrected(end - start);
    AddCalls(id, ns);
    AddPart(op, id, ns);
  }
};

// Everything one worker thread carries through a phase.
struct Ctx {
  int thread = 0;
  Recorder* rec = nullptr;  // Set in measured facade phases.
  Tracer* tr = nullptr;     // Set in traced phases.
  uint64_t attempted = 0;   // Ops attempted.
  uint64_t failed = 0;      // Ops with an unexpected status or a failed data check.
  std::string first_failure;
  uint64_t ops_done = 0;    // Completed ops (the ops_per_s numerator).
  uint64_t sim_accesses = 0;

  void Fail(const std::string& what) {
    ++failed;
    if (first_failure.empty()) {
      first_failure = what;
    }
  }
  // Records an op's end-to-end latency and its completion.
  void Done(int op, uint64_t start, uint64_t end) {
    ++ops_done;
    if (rec != nullptr) {
      rec->Record(op, start, end);
    }
    if (tr != nullptr) {
      tr->op_latency[op].Record(ClockCorrected(end - start));
      ++tr->ops[op];
    }
  }
};

// One fixed-point sample of page-table and metadata memory against the
// resident memory they map (pt_meta_overhead_pct, pt.*_per_resident_mib).
struct PtMetaSample {
  double pt_bytes = 0;
  double meta_bytes = 0;
  double resident_bytes = 0;
};

// One benchmark workload: a seeded op stream driven through the facade.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual int threads() const = 0;
  // Creates the address spaces and the 4 MiB fork parent (timed as set-up).
  // Runs on worker thread 0.
  virtual void Setup() = 0;
  // Brings thread |ctx.thread| to the steady state (full windows).
  virtual void Warmup(Ctx& ctx) = 0;
  // One closed-loop step: a lifecycle cycle, a chunk, or a ring batch.
  virtual void Step(Ctx& ctx) = 0;
  // From now on every second step (every second lifecycle cycle, every
  // second chunk of a thread, including its later munmap) replays its ops
  // through the layer functions the facade calls instead, one span per call,
  // so the facade's op latencies and the layer split of the same ops come
  // from one window of one address space. Runs on thread 0 between phases.
  virtual void StartSplit() = 0;
  // Forks the 4 MiB parent |n| times back to back on worker thread 0 while
  // the other workers wait: the fork samples of a workload whose Step does
  // not fork (contended-4t). Does nothing where Step forks.
  virtual void ForkBurst(Ctx& ctx, uint64_t n) = 0;
  // Reads every resident word back, checks each page table, destroys every
  // address space. Runs on thread 0 after all workers joined.
  virtual void Teardown(Ctx& ctx) = 0;
  // The fixed-point memory-overhead samples taken so far.
  virtual const std::vector<PtMetaSample>& pt_meta_samples() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);
bool IsWorkloadName(const std::string& name);
// contended-4t's op stream through the per-CPU rings (the ring layer's phase
// of contended-4t's traced run).
std::unique_ptr<Workload> MakeRingPhase(uint64_t seed);

}  // namespace mmbench

#endif  // MMBENCH_BENCH_H_
