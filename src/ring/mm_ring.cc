#include "src/ring/mm_ring.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "src/common/stats.h"
#include "src/obs/telemetry.h"

namespace cortenmm {

const char* MmOpCodeName(MmOpCode op) {
  switch (op) {
    case MmOpCode::kNop:
      return "nop";
    case MmOpCode::kMmapAnon:
      return "mmap_anon";
    case MmOpCode::kMmapAnonFixed:
      return "mmap_anon_fixed";
    case MmOpCode::kMunmap:
      return "munmap";
    case MmOpCode::kMprotect:
      return "mprotect";
    case MmOpCode::kFault:
      return "fault";
  }
  return "unknown";
}

MmRing::MmRing(Executor executor)
    : executor_(std::move(executor)), cpus_(std::make_unique<PerCpu[]>(kMaxCpus)) {}

MmRing::~MmRing() {
  // Apply straggler ops so destruction never loses a submitted operation's
  // side effects (their completions die with the ring, but the caller already
  // chose not to reap them).
  if (pending_.load(std::memory_order_acquire) != 0) {
    CnaNode* node = CnaNodePool::Get();
    combiner_lock_.Lock(node);
    Drain();
    combiner_lock_.Unlock(node);
    CnaNodePool::Put(node);
  }
}

bool MmRing::Submit(const MmSqe& sqe) {
  PerCpu& pc = cpus_[CurrentCpu() % kMaxCpus];
  uint32_t tail = pc.sq_tail.load(std::memory_order_relaxed);
  if (tail - pc.cq_head.load(std::memory_order_acquire) >= kDepth) {
    // At the outstanding limit. Unsubmitted ops clear via an inline drain;
    // posted-but-unreaped completions only clear when the caller reaps.
    CombineOnce();
    if (tail - pc.cq_head.load(std::memory_order_acquire) >= kDepth) {
      CountEvent(Counter::kRingFullRejects);
      return false;
    }
  }
  // outstanding < kDepth implies the sq slot at tail % kDepth was consumed by
  // a drain at least kDepth ops ago, so the owner may overwrite it.
  // Weak-memory audit (PR 9): the plain slot copy before the sq_tail release
  // store is TSO-safe — the FIFO store buffer commits the slot bytes before
  // the tail, so a combiner that acquires the new tail reads a whole SQE.
  // Model-checked by MakeRingPublishLitmus (src/verif/litmus_model.cc);
  // RingVariant::kTailBeforeSlot keeps the inverted order as the regression.
  pc.sq[tail % kDepth] = sqe;
  pc.sq_tail.store(tail + 1, std::memory_order_release);
  pending_.fetch_add(1, std::memory_order_release);
  CountEvent(Counter::kRingOpsSubmitted);
  return true;
}

bool MmRing::Reap(MmCqe* out) {
  PerCpu& pc = cpus_[CurrentCpu() % kMaxCpus];
  uint32_t head = pc.cq_head.load(std::memory_order_relaxed);
  if (head == pc.cq_tail.load(std::memory_order_acquire)) {
    return false;
  }
  *out = pc.cq[head % kDepth];
  pc.cq_head.store(head + 1, std::memory_order_release);
  return true;
}

void MmRing::DrainBarrier() {
  PerCpu& pc = cpus_[CurrentCpu() % kMaxCpus];
  // Done when every op this CPU submitted has a posted completion. The loop
  // terminates because our ops are visible in our sq before any CombineOnce
  // below: whichever combiner runs next collects and posts them (or a
  // concurrent combiner already did, which the re-check observes).
  while (pc.cq_tail.load(std::memory_order_acquire) !=
         pc.sq_tail.load(std::memory_order_relaxed)) {
    CombineOnce();
  }
}

uint32_t MmRing::Outstanding() const {
  const PerCpu& pc = cpus_[CurrentCpu() % kMaxCpus];
  return pc.sq_tail.load(std::memory_order_relaxed) -
         pc.cq_head.load(std::memory_order_relaxed);
}

void MmRing::CombineOnce() {
  CnaNode* node = CnaNodePool::Get();
  combiner_lock_.Lock(node);
  // Re-check under the lock: the previous combiner may have executed our ops
  // on our behalf while we waited in the CNA queue (flat combining's win).
  if (pending_.load(std::memory_order_acquire) != 0) {
    Drain();
  }
  combiner_lock_.Unlock(node);
  CnaNodePool::Put(node);
}

void MmRing::PostCompletion(int cpu, const MmCqe& cqe) {
  PerCpu& pc = cpus_[cpu];
  uint32_t tail = pc.cq_tail.load(std::memory_order_relaxed);
  // Never overwrites an unreaped completion: posted-but-unreaped plus
  // still-pending ops total at most kDepth (the Submit-side invariant), and a
  // post consumes one pending op.
  assert(tail - pc.cq_head.load(std::memory_order_acquire) < kDepth);
  pc.cq[tail % kDepth] = cqe;
  pc.cq_tail.store(tail + 1, std::memory_order_release);
  pending_.fetch_sub(1, std::memory_order_release);
  CountEvent(Counter::kRingOpsCompleted);
}

void MmRing::Drain() {
  CountEvent(Counter::kRingDrains);
  auto& telemetry = Telemetry::Instance();

  // Phase 1: collect every CPU's pending SQEs, preserving submission order
  // within each CPU. Consuming sq_head up front bounds this drain: ops
  // submitted after the snapshot wait for the next combiner.
  struct CpuQueue {
    int cpu;
    size_t next = 0;
    std::vector<MmSqe> ops;
  };
  std::vector<CpuQueue> queues;
  size_t total = 0;
  for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
    PerCpu& pc = cpus_[cpu];
    uint32_t head = pc.sq_head.load(std::memory_order_relaxed);
    uint32_t tail = pc.sq_tail.load(std::memory_order_acquire);
    if (head == tail) {
      continue;
    }
    telemetry.RecordBatch(BatchStat::kRingSqDepth, tail - head);
    CpuQueue q;
    q.cpu = cpu;
    q.ops.reserve(tail - head);
    for (; head != tail; ++head) {
      q.ops.push_back(pc.sq[head % kDepth]);
    }
    pc.sq_head.store(tail, std::memory_order_release);
    total += q.ops.size();
    queues.push_back(std::move(q));
  }
  if (total == 0) {
    return;
  }
  telemetry.RecordBatch(BatchStat::kRingOpsPerDrain, total);

  // An op is wave-eligible when it has a well-formed explicit range that does
  // not straddle a subtree boundary; everything else (address-allocating
  // mmaps, file ops, malformed ranges, giant spans) runs as a singleton.
  struct WaveOp {
    uint64_t subtree;  // Bucket key: kSubtreeSpan-aligned region base.
    size_t queue;      // Index into |queues| (owner CPU + fan-out target).
    const MmSqe* sqe;
  };
  std::vector<WaveOp> wave;
  std::vector<MmCqe> group_cqes;
  std::vector<MmSqe> batch;

  // Runs one executor call over |n| ops and fans each completion back to its
  // op's owner CPU, in op order.
  auto run_group = [&](const WaveOp* ops, size_t n) {
    batch.clear();
    group_cqes.assign(n, MmCqe{});
    for (size_t k = 0; k < n; ++k) {
      batch.push_back(*ops[k].sqe);
      group_cqes[k].user_data = ops[k].sqe->user_data;
    }
    executor_(batch.data(), group_cqes.data(), n);
    if (n >= 2) {
      CountEvent(Counter::kRingFusedGroupOps, n);
    }
    for (size_t k = 0; k < n; ++k) {
      group_cqes[k].user_data = ops[k].sqe->user_data;  // Executor must not remap.
      PostCompletion(queues[ops[k].queue].cpu, group_cqes[k]);
    }
  };

  size_t remaining = total;
  while (remaining > 0) {
    // Phase 2: build a wave — from each CPU queue, the maximal prefix of
    // wave-eligible ops. An ineligible op cuts its CPU's prefix, preserving
    // per-CPU submission order across waves.
    wave.clear();
    for (size_t qi = 0; qi < queues.size(); ++qi) {
      CpuQueue& q = queues[qi];
      while (q.next < q.ops.size()) {
        const MmSqe& sqe = q.ops[q.next];
        VaRange range;
        if (!SqeRange(sqe, &range)) {
          break;
        }
        uint64_t subtree = AlignDown(range.start, kSubtreeSpan);
        if (AlignDown(range.end - 1, kSubtreeSpan) != subtree) {
          break;  // Straddles a subtree boundary: serial.
        }
        wave.push_back(WaveOp{subtree, qi, &sqe});
        ++q.next;
      }
    }

    if (wave.empty()) {
      // Every non-empty queue is blocked on an ineligible head op. Execute
      // one singleton per queue to guarantee progress.
      for (size_t qi = 0; qi < queues.size(); ++qi) {
        CpuQueue& q = queues[qi];
        if (q.next >= q.ops.size()) {
          continue;
        }
        WaveOp one{0, qi, &q.ops[q.next]};
        ++q.next;
        run_group(&one, 1);
        --remaining;
      }
      continue;
    }

    // Phase 3: bucket the wave by subtree. stable_sort keeps equal keys in
    // wave order — CPU-major, submission order within a CPU — which is
    // exactly the order a fused bucket must execute in.
    std::stable_sort(wave.begin(), wave.end(),
                     [](const WaveOp& a, const WaveOp& b) { return a.subtree < b.subtree; });

    // Phase 4: one executor call per bucket chunk. Same-CPU ops in a bucket
    // need their completions posted in submission order; CPU-major bucket
    // order plus in-order fan-out below gives that for free. Cross-CPU chunks
    // must fan out per-op to the right CPU, so group by owner within chunks.
    size_t i = 0;
    while (i < wave.size()) {
      size_t j = i;
      while (j < wave.size() && wave[j].subtree == wave[i].subtree &&
             j - i < kMaxFusedOps) {
        ++j;
      }
      // One bucket chunk [i, j): a single batch, then the fan-out.
      run_group(&wave[i], j - i);
      remaining -= j - i;
      i = j;
    }
  }
}

}  // namespace cortenmm
