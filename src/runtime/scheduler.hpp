#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "runtime/deque.hpp"
#include "runtime/eventcount.hpp"
#include "runtime/inject_queue.hpp"
#include "runtime/task_node.hpp"

namespace cuttlefish::runtime {

class TaskScheduler;

namespace detail {
// Which scheduler (if any) owns the calling thread, and its worker id
// there. Header-visible so the spawn fast path inlines fully into call
// sites; defined in scheduler.cpp.
extern thread_local TaskScheduler* t_scheduler;
extern thread_local int t_worker_id;
}  // namespace detail

/// Async-finish work-stealing runtime in the style of HClib (the second
/// programming model of the paper's evaluation). Each worker owns a
/// Chase-Lev deque; idle workers steal from uniformly random victims.
///
///   TaskScheduler rt(20);
///   rt.finish([&] {
///     rt.async([&] { ... rt.async(...); ... });
///   });
///
/// finish() returns once the root and every transitively spawned task has
/// completed. async() may only be called from inside a running task (or
/// the finish root); it never blocks.
///
/// Hot-path guarantees (the paper's "negligible runtime overhead"
/// precondition for attributing energy deltas to DVFS policy, not to the
/// substrate — see bench/micro_runtime.cpp for the measured numbers):
///
///  * Zero steady-state allocation. A spawn binds the callable into a
///    cache-line TaskNode (48-byte small-buffer storage) drawn from the
///    spawning worker's slab; nodes recycle owner-locally, and nodes freed
///    by a stealing worker return to their owner in batched lock-free
///    chains (task_node.hpp). Heap traffic occurs only while the live-task
///    high-water mark grows, or for callables over 48 bytes.
///
///  * Lock-free external spawn. Threads outside the pool push into an
///    intrusive Treiber injection queue (inject_queue.hpp); workers drain
///    it wholesale with one exchange. No mutex on either side.
///
///  * Syscall-free signalling when busy. Spawns signal an eventcount
///    (eventcount.hpp); when no worker is parked this costs two atomic
///    ops and no futex wake. Idle workers run a spin -> yield -> park
///    protocol with exponentially backed-off steal attempts, so an idle
///    pool parks (paper §2: idle workers must not inflate the package
///    power floor) while a loaded pool never touches the kernel.
class TaskScheduler {
 public:
  explicit TaskScheduler(int threads);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Worker count; fixed before any worker thread starts (reading
  /// workers_.size() from workers would race with construction).
  int size() const { return thread_count_; }

  /// Spawn a task into the calling worker's deque (or the lock-free
  /// injection queue when called from outside the pool). The callable is
  /// moved into slab-recycled storage; see class comment for the
  /// allocation guarantees.
  template <typename F>
  void async(F&& task) {
    // Worker-local fast path, fully inline: slab pop, in-place bind, deque
    // push — no locks, no allocation, and no signalling cost beyond the
    // eventcount's two uncontended atomics (zero for a 1-worker pool,
    // which has nobody to wake).
    if (detail::t_scheduler == this) {
      Worker& w = *slots_[static_cast<size_t>(detail::t_worker_id)];
      TaskNode* node = w.slab.allocate();
      node->bind(std::forward<F>(task), &heap_fallbacks_);
      pending_.fetch_add(1, std::memory_order_relaxed);
      w.deque.push(node);
      if (thread_count_ > 1) idle_.notify_one();
      return;
    }
    TaskNode* node = allocate_external();
    node->bind(std::forward<F>(task), &heap_fallbacks_);
    pending_.fetch_add(1, std::memory_order_relaxed);
    injected_.push(node);
    idle_.notify_one();
  }

  /// Run `root` under a finish scope and wait for quiescence. Only one
  /// finish scope is active at a time (matching the paper benchmarks'
  /// single top-level finish); asyncs nest freely inside it.
  template <typename F>
  void finish(F&& root) {
    finish_begin();
    async(std::forward<F>(root));
    finish_wait();
  }

  /// Pre-grow every worker's slab (and the external-spawn slab) so the
  /// next `per_worker` allocations on each need no heap traffic. Optional:
  /// slabs also grow organically on demand. Call before a measurement
  /// region to get the zero-allocation guarantee from the first task.
  void reserve(int per_worker);

  /// Worker id of the calling thread, -1 for external threads.
  static int current_worker();

  /// True when the calling worker's deque is empty — i.e. thieves would
  /// find nothing to take. Used by lazy binary splitting (parallel_for)
  /// to split ranges only when parallelism is actually wanted. Always
  /// true for external threads.
  bool want_more_work() const;

  struct Stats {
    uint64_t executed = 0;
    uint64_t steals = 0;
    uint64_t steal_attempts = 0;
    uint64_t parks = 0;           // times a worker fully parked
    uint64_t slab_blocks = 0;     // 64KiB slab blocks ever allocated
    uint64_t heap_fallbacks = 0;  // callables too big for inline storage
  };
  Stats stats() const;

 private:
  struct alignas(64) Worker {
    ChaseLevDeque<TaskNode*> deque;
    TaskSlab slab;
    SplitMix64 rng{0};
    // Single-writer stats, read concurrently by stats(). Updated with
    // relaxed load+store (not RMW) so increments stay a plain add.
    std::atomic<uint64_t> executed{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> steal_attempts{0};
    std::atomic<uint64_t> parks{0};

    void bump(std::atomic<uint64_t>& c) {
      c.store(c.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
    }
  };

  void worker_loop(int id);
  bool try_run_one(int id);
  bool victims_look_nonempty(int id) const;
  void run_task(Worker& w, TaskNode* task);
  TaskNode* allocate_external();
  bool drain_injected(int id);
  void finish_begin();
  void finish_wait();

  int thread_count_ = 0;
  std::vector<std::unique_ptr<Worker>> slots_;
  std::vector<std::thread> workers_;

  // Lock-free injection queue for tasks spawned by external threads, plus
  // a slab for their nodes (external spawns are rare — finish roots and
  // control-plane threads — so this slab's owner ops take a mutex).
  InjectQueue injected_;
  std::mutex external_mutex_;
  TaskSlab external_slab_;

  EventCount idle_;
  std::atomic<uint64_t> pending_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> heap_fallbacks_{0};
  std::mutex quiesce_mutex_;
  std::condition_variable quiesce_cv_;
};

/// Default worker count: hardware concurrency, at least 1.
int default_thread_count();

}  // namespace cuttlefish::runtime
