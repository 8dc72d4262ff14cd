// Unit and stress tests for the synchronization substrate: CNA lock,
// phase-fair rwlock, BRAVO bias layer, epoch RCU, seqcount.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/stats.h"
#include "src/common/topology.h"
#include "src/sync/bravo.h"
#include "src/sync/cna_lock.h"
#include "src/sync/pfq_rwlock.h"
#include "src/sync/rcu.h"
#include "src/sync/seqlock.h"
#include "src/sync/spinlock.h"

namespace cortenmm {
namespace {

int StressThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw >= 4 ? 4 : 2;
}

// ---------------------------------------------------------------------------
// CNA lock
// ---------------------------------------------------------------------------

TEST(CnaLockTest, UncontendedLockUnlock) {
  CnaLock lock;
  CnaNode* node = CnaNodePool::Get();
  lock.Lock(node);
  EXPECT_TRUE(lock.IsLockedHint());
  lock.Unlock(node);
  EXPECT_FALSE(lock.IsLockedHint());
  CnaNodePool::Put(node);
}

TEST(CnaLockTest, TryLockFailsWhenHeld) {
  CnaLock lock;
  CnaNode* a = CnaNodePool::Get();
  CnaNode* b = CnaNodePool::Get();
  lock.Lock(a);
  EXPECT_FALSE(lock.TryLock(b));
  lock.Unlock(a);
  EXPECT_TRUE(lock.TryLock(b));
  lock.Unlock(b);
  CnaNodePool::Put(a);
  CnaNodePool::Put(b);
}

TEST(CnaLockTest, NestedHoldsUseDistinctPoolNodes) {
  // One thread holds many locks at once via distinct pool nodes (the RCursor
  // subtree-lock pattern): nodes must be independent.
  constexpr int kLocks = 64;
  std::vector<CnaLock> locks(kLocks);
  std::vector<CnaNode*> nodes(kLocks);
  for (int i = 0; i < kLocks; ++i) {
    nodes[i] = CnaNodePool::Get();
    locks[i].Lock(nodes[i]);
  }
  for (int i = kLocks - 1; i >= 0; --i) {
    locks[i].Unlock(nodes[i]);
    CnaNodePool::Put(nodes[i]);
  }
  for (int i = 0; i < kLocks; ++i) {
    EXPECT_FALSE(locks[i].IsLockedHint());
  }
}

TEST(CnaLockTest, SameNodeMutualExclusionStress) {
  // Every worker on node 0: the unlocker never skips a waiter, so the lock
  // runs as a plain FIFO MCS queue — the grant path the NUMA-aware one builds
  // on, and the flat comparator in bench/ablation_numa.cc.
  CnaLock lock;
  int64_t counter = 0;
  constexpr int kIters = 20000;
  const int threads = StressThreads();
  const uint64_t skipped_before =
      GlobalStats().Total(Counter::kCnaSecondaryEnqueues);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&lock, &counter, t] {
      BindThisThreadToCpu(NodeTopology::Instance().FirstCpuOfNode(0) + t);
      for (int i = 0; i < kIters; ++i) {
        CnaNode* node = CnaNodePool::Get();
        lock.Lock(node);
        // Non-atomic increment: torn only if mutual exclusion is broken.
        counter = counter + 1;
        lock.Unlock(node);
        CnaNodePool::Put(node);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(counter, static_cast<int64_t>(kIters) * threads);
  EXPECT_EQ(GlobalStats().Total(Counter::kCnaSecondaryEnqueues),
            skipped_before);
}

TEST(CnaLockTest, CrossNodeMutualExclusionStress) {
  // Two workers per NUMA node hammer one lock: exercises the secondary-queue
  // detach (remote waiters skipped), the batched same-node handoff, and the
  // kBatchBound flush — while the non-atomic counter proves exclusion held.
  //
  // Whether a queue ever *forms* depends on the host: on a single hardware
  // thread each worker can run its whole loop inside one scheduler quantum
  // and every acquisition is uncontended. The critical section spins ~200ns
  // (like the bench's contention mix) so a preemption mid-hold seeds a
  // self-sustaining queue, and the batched-handoff expectation retries the
  // whole round rather than asserting on one scheduling accident. Mutual
  // exclusion is asserted on every round unconditionally.
  const NodeTopology& topo = NodeTopology::Instance();
  const int per_node = 2;
  const int threads = per_node * topo.nodes();
  constexpr int kIters = 20000;
  const uint64_t batched_before =
      GlobalStats().Total(Counter::kCnaBatchedHandoffs);
  constexpr int kAttempts = 3;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    CnaLock lock;
    int64_t counter = 0;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&lock, &counter, t, per_node] {
        BindThisThreadToCpu(
            NodeTopology::Instance().FirstCpuOfNode(t / per_node) +
            t % per_node);
        for (int i = 0; i < kIters; ++i) {
          CnaNode* node = CnaNodePool::Get();
          lock.Lock(node);
          // Non-atomic increment: torn only if mutual exclusion is broken.
          counter = counter + 1;
          auto hold_until = std::chrono::steady_clock::now() +
                            std::chrono::nanoseconds(200);
          while (std::chrono::steady_clock::now() < hold_until) {
          }
          lock.Unlock(node);
          CnaNodePool::Put(node);
        }
      });
    }
    for (auto& w : workers) {
      w.join();
    }
    ASSERT_EQ(counter, static_cast<int64_t>(kIters) * threads);
    if (topo.nodes() < 2 ||
        GlobalStats().Total(Counter::kCnaBatchedHandoffs) > batched_before) {
      break;
    }
  }
  if (topo.nodes() >= 2) {
    // With two same-node waiters racing two remote ones over 60k+ handoffs
    // per attempt, the unlocker finds a local successor past a parked remote
    // at least once.
    EXPECT_GT(GlobalStats().Total(Counter::kCnaBatchedHandoffs),
              batched_before);
  }
}

TEST(CnaLockTest, ParkedWaitersWakeAcrossLongHolds) {
  // Holds long enough that every waiter exhausts its spin phase and parks in
  // spin.wait(): exercises the fenced park/wake protocol end to end (the
  // production side of the cna-handoff litmus).
  CnaLock lock;
  constexpr int kRounds = 50;
  const int threads = StressThreads();
  std::atomic<int> acquisitions{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        CnaNode* node = CnaNodePool::Get();
        lock.Lock(node);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        acquisitions.fetch_add(1, std::memory_order_relaxed);
        lock.Unlock(node);
        CnaNodePool::Put(node);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(acquisitions.load(), kRounds * threads);
}

// ---------------------------------------------------------------------------
// Phase-fair rwlock
// ---------------------------------------------------------------------------

TEST(PfqRwLockTest, ReadersShare) {
  PfqRwLock lock;
  lock.ReadLock();
  lock.ReadLock();  // A second reader must not block.
  lock.ReadUnlock();
  lock.ReadUnlock();
}

TEST(PfqRwLockTest, WriterExcludesReadersStress) {
  PfqRwLock lock;
  int64_t shared_value = 0;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> torn_reads{0};
  constexpr int kWrites = 10000;

  std::thread writer([&] {
    for (int i = 0; i < kWrites; ++i) {
      lock.WriteLock();
      shared_value = shared_value + 1;  // Interim odd state below.
      shared_value = shared_value + 1;
      lock.WriteUnlock();
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < StressThreads() - 1; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        lock.ReadLock();
        if (shared_value % 2 != 0) {
          torn_reads.fetch_add(1);
        }
        lock.ReadUnlock();
      }
    });
  }
  writer.join();
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ(shared_value, 2 * kWrites);
}

// ---------------------------------------------------------------------------
// BRAVO
// ---------------------------------------------------------------------------

TEST(BravoTest, FastPathReadThenWriterRevokes) {
  BravoRwLock lock;
  EXPECT_TRUE(lock.read_biased());
  auto cookie = lock.ReadLock();
  EXPECT_EQ(cookie, BravoRwLock::ReadCookie::kFastPath);
  lock.ReadUnlock(cookie);

  lock.WriteLock();  // Revokes the bias.
  EXPECT_FALSE(lock.read_biased());
  lock.WriteUnlock();

  // Immediately after revocation readers take the underlying lock.
  auto cookie2 = lock.ReadLock();
  EXPECT_EQ(cookie2, BravoRwLock::ReadCookie::kUnderlying);
  lock.ReadUnlock(cookie2);
}

// Hammers the revocation window specifically: the writer re-arms the bias
// before every WriteLock so each iteration runs the full revoke-then-scan
// protocol against readers racing the rbias re-check. This is the production
// counterpart of the MakeBravoRevokeLitmus model (src/verif/litmus_model.cc)
// and of the StoreLoad fence in BravoRwLock::WriteLock — without the fence,
// tsan (and, rarely, a bare x86 run) can observe a fast-path reader inside
// the write critical section here.
TEST(BravoTest, RevocationFenceExcludesRacingFastPathReaders) {
  BravoRwLock lock;
  std::atomic<bool> stop{false};
  std::atomic<int> writer_in_cs{0};
  std::atomic<int64_t> overlaps{0};
  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) {
      lock.rearm_bias_for_testing();  // Force the revocation path every time.
      lock.WriteLock();
      writer_in_cs.store(1, std::memory_order_seq_cst);
      writer_in_cs.store(0, std::memory_order_seq_cst);
      lock.WriteUnlock();
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < StressThreads() - 1; ++t) {
    readers.emplace_back([&, t] {
      BindThisThreadToCpu(t + 8);  // Spread BRAVO table slots.
      while (!stop.load(std::memory_order_acquire)) {
        auto cookie = lock.ReadLock();
        if (cookie == BravoRwLock::ReadCookie::kFastPath &&
            writer_in_cs.load(std::memory_order_seq_cst) != 0) {
          overlaps.fetch_add(1);
        }
        lock.ReadUnlock(cookie);
      }
    });
  }
  writer.join();
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(overlaps.load(), 0);
}

TEST(BravoTest, WriterExcludesFastPathReadersStress) {
  BravoRwLock lock;
  int64_t shared_value = 0;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> torn{0};
  std::thread writer([&] {
    for (int i = 0; i < 5000; ++i) {
      lock.WriteLock();
      shared_value = shared_value + 1;
      shared_value = shared_value + 1;
      lock.WriteUnlock();
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < StressThreads() - 1; ++t) {
    readers.emplace_back([&, t] {
      BindThisThreadToCpu(t + 8);  // Spread BRAVO table slots.
      while (!stop.load(std::memory_order_acquire)) {
        auto cookie = lock.ReadLock();
        if (shared_value % 2 != 0) {
          torn.fetch_add(1);
        }
        lock.ReadUnlock(cookie);
      }
    });
  }
  writer.join();
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(torn.load(), 0);
}

// ---------------------------------------------------------------------------
// RCU
// ---------------------------------------------------------------------------

TEST(RcuTest, SynchronizeWaitsForReader) {
  Rcu& rcu = Rcu::Instance();
  std::atomic<bool> reader_in{false};
  std::atomic<bool> reader_release{false};
  std::atomic<bool> sync_done{false};

  std::thread reader([&] {
    BindThisThreadToCpu(20);
    rcu.ReadLock();
    reader_in.store(true);
    while (!reader_release.load()) {
      std::this_thread::yield();
    }
    rcu.ReadUnlock();
  });
  while (!reader_in.load()) {
    std::this_thread::yield();
  }
  std::thread syncer([&] {
    BindThisThreadToCpu(21);
    rcu.Synchronize();
    sync_done.store(true);
  });
  // The grace period must not elapse while the reader is inside.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(sync_done.load());
  reader_release.store(true);
  syncer.join();
  reader.join();
  EXPECT_TRUE(sync_done.load());
}

TEST(RcuTest, RetireDefersUntilGracePeriod) {
  Rcu& rcu = Rcu::Instance();
  rcu.DrainAll();
  static std::atomic<int> freed;
  freed.store(0);
  auto deleter = [](void* p) {
    freed.fetch_add(1);
    delete static_cast<int*>(p);
  };

  rcu.ReadLock();
  rcu.Retire(new int(1), deleter);
  // Can't be freed yet: we are inside a read-side critical section that
  // started before the retirement.
  rcu.ReadUnlock();
  rcu.DrainAll();
  EXPECT_EQ(freed.load(), 1);
}

TEST(RcuTest, NestedReadSections) {
  Rcu& rcu = Rcu::Instance();
  rcu.ReadLock();
  rcu.ReadLock();
  EXPECT_TRUE(rcu.InReadSection());
  rcu.ReadUnlock();
  EXPECT_TRUE(rcu.InReadSection());
  rcu.ReadUnlock();
  EXPECT_FALSE(rcu.InReadSection());
}

TEST(RcuTest, ManyRetirementsAllFreed) {
  Rcu& rcu = Rcu::Instance();
  rcu.DrainAll();
  static std::atomic<int> live;
  live.store(0);
  auto deleter = [](void* p) {
    live.fetch_sub(1);
    delete static_cast<int*>(p);
  };
  for (int i = 0; i < 500; ++i) {
    live.fetch_add(1);
    rcu.Retire(new int(i), deleter);
  }
  rcu.DrainAll();
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(rcu.PendingCount(), 0u);
}

// ---------------------------------------------------------------------------
// SeqCount
// ---------------------------------------------------------------------------

TEST(SeqCountTest, ValidatesAcrossWrite) {
  SeqCount seq;
  uint32_t snap = seq.ReadBegin();
  EXPECT_TRUE(seq.ReadValidate(snap));
  seq.WriteBegin();
  seq.WriteEnd();
  EXPECT_FALSE(seq.ReadValidate(snap));
  EXPECT_TRUE(seq.ChangedSince(snap));
}

}  // namespace
}  // namespace cortenmm
