#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace cuttlefish::runtime {

/// Eventcount: the sleep half of the scheduler's spin -> yield -> park idle
/// protocol. When nobody is parked a notify costs one fence and one load
/// of a read-mostly waiter count — no shared write, no mutex, no syscall —
/// which is what makes signalling on *every* spawn affordable (the seed
/// runtime paid a futex wake per spawn via an unconditional
/// condition_variable notify).
///
/// Waiter protocol (the usual eventcount three-step):
///   1. ticket = prepare_wait()        — announce intent to sleep
///   2. re-check all work sources      — the final recheck
///   3. commit_wait(ticket)            — sleep, or cancel_wait() if work
///      appeared in step 2
///
/// Correctness argument (why no wakeup is lost): the producer publishes
/// work, then issues a seq_cst fence and reads the waiter count; the
/// waiter bumps the waiter count and reads its ticket, then issues a
/// seq_cst fence before its recheck. Whichever fence comes second in the
/// total order sees the other side's write: either the recheck finds the
/// work, or the producer sees the waiter and bumps the epoch. That bump is
/// ordered after the waiter's ticket read, so commit_wait either sees a
/// changed epoch and returns, or sleeps under the mutex and is notified.
class EventCount {
 public:
  uint64_t prepare_wait() {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    const uint64_t ticket = epoch_.load(std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return ticket;
  }

  void cancel_wait() { waiters_.fetch_sub(1, std::memory_order_seq_cst); }

  void commit_wait(uint64_t ticket) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
      return epoch_.load(std::memory_order_seq_cst) != ticket;
    });
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }

  void notify_one() { notify(false); }
  void notify_all() { notify(true); }

 private:
  void notify(bool all) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return;  // fast path
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    {
      // Taking the mutex orders the notify against a waiter that has
      // passed its predicate check but not yet blocked.
      std::lock_guard<std::mutex> lock(mutex_);
    }
    if (all) {
      cv_.notify_all();
    } else {
      cv_.notify_one();
    }
  }

  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> waiters_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace cuttlefish::runtime
