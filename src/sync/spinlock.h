// Test-and-test-and-set spin lock with bounded backoff. Used for cold-path
// structures (buddy free lists, file registries); the page-table hot path
// uses the CNA and phase-fair locks instead (paper §4.5 "Locks").
#ifndef SRC_SYNC_SPINLOCK_H_
#define SRC_SYNC_SPINLOCK_H_

#include <atomic>

#include "src/common/backoff.h"

namespace cortenmm {

class SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void Lock() {
    SpinBackoff backoff;
    for (;;) {
      if (!locked_.exchange(true, std::memory_order_acquire)) {
        return;
      }
      while (locked_.load(std::memory_order_relaxed)) {
        backoff.Spin();
      }
    }
  }

  bool TryLock() { return !locked_.exchange(true, std::memory_order_acquire); }

  void Unlock() { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

// RAII guard.
class SpinGuard {
 public:
  explicit SpinGuard(SpinLock& lock) : lock_(lock) { lock_.Lock(); }
  ~SpinGuard() { lock_.Unlock(); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  SpinLock& lock_;
};

}  // namespace cortenmm

#endif  // SRC_SYNC_SPINLOCK_H_
