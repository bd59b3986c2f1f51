#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "runtime/deque.hpp"
#include "runtime/eventcount.hpp"
#include "runtime/task_node.hpp"

namespace cuttlefish::runtime {

class TaskScheduler;

namespace detail {
// Which scheduler (if any) the calling thread is working for, and its
// worker id there. Header-visible so the spawn fast path inlines fully
// into call sites; defined in scheduler.cpp. constinit lets other
// translation units read them directly instead of through a TLS-init
// wrapper call.
extern constinit thread_local TaskScheduler* t_scheduler;
extern constinit thread_local int t_worker_id;
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
/// As in HClib, the thread that calls finish() is worker 0 for the
/// scope's duration: it runs the root, then pops, steals and runs tasks
/// until the scope is quiescent, and only then returns. A pool of size n
/// therefore starts n - 1 threads (workers 1..n-1). One finish scope is
/// active at a time, opened by any thread that is not itself running a
/// task; a second concurrent or a nested finish is a CF_ASSERT. async()
/// may only be called from inside a running task or the finish root (also
/// a CF_ASSERT); it never blocks.
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
///  * No shared write per task. Termination is counted per worker: each
///    keeps monotone, single-writer `spawned` and `completed` counters,
///    and the scope is quiescent when the sum of completions (read first)
///    equals the sum of spawns (read second). Only the idle finisher sums
///    them.
///
///  * Syscall-free signalling when busy. Spawns signal an eventcount
///    (eventcount.hpp), which writes shared state only when a worker is
///    parked. Idle workers run a spin -> yield -> park protocol with
///    exponentially backed-off steal attempts, so an idle pool parks
///    (paper §2: idle workers must not inflate the package power floor)
///    while a loaded pool never touches the kernel.
class TaskScheduler {
 public:
  explicit TaskScheduler(int threads);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Worker count, the finish caller (worker 0) included; fixed before
  /// any worker thread starts.
  int size() const { return thread_count_; }

  /// Spawn a task into the calling worker's deque. The callable is moved
  /// into slab-recycled storage; see class comment for the allocation
  /// guarantees.
  template <typename F>
  void async(F&& task) {
    // Fully inline: slab pop, in-place bind, counter bump, deque push —
    // no locks, no allocation, and no signalling cost beyond a fence and
    // one read of the eventcount's waiter count (none for a 1-worker
    // pool, which has nobody to wake).
    CF_ASSERT(detail::t_scheduler == this,
              "async outside a finish scope of this scheduler");
    Worker& w = *slots_[static_cast<size_t>(detail::t_worker_id)];
    TaskNode* node = w.slab.allocate();
    node->bind(std::forward<F>(task), &heap_fallbacks_);
    w.bump(w.spawned);
    w.deque.push(node);
    if (thread_count_ > 1) idle_.notify_one();
  }

  /// Run `root` under a finish scope on the calling thread, as worker 0,
  /// and return once it and every transitively spawned task completed.
  /// A root that throws ends the program, like any task.
  template <typename F>
  void finish(F&& root) noexcept {
    Worker& self = enter_finish();
    // The root runs inline as worker 0's first task: counted like any
    // other task, but never stolen.
    self.bump(self.spawned);
    root();
    self.bump(self.completed, std::memory_order_release);
    work_until_quiescent();
  }

  /// Pre-grow every worker's slab so the next `per_worker` allocations on
  /// each need no heap traffic. Optional: slabs also grow organically on
  /// demand. Call before a measurement region to get the zero-allocation
  /// guarantee from the first task.
  void reserve(int per_worker);

  /// Worker id of the calling thread: 0 inside a finish scope's caller,
  /// 1..n-1 on pool threads, -1 elsewhere.
  static int current_worker();

  /// True when the calling worker's deque is empty — i.e. thieves would
  /// find nothing to take. Used by lazy binary splitting (parallel_for)
  /// to split ranges, and by UTS (uts_count_parallel) to spawn a child
  /// instead of walking it, only when parallelism is actually wanted.
  /// Always true for threads outside the pool.
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
    // Single-writer counters, read concurrently by stats() and the
    // quiescence check. Updated with load+store (not RMW) so increments
    // stay a plain add. spawned/completed are the termination counts.
    std::atomic<uint64_t> spawned{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> steal_attempts{0};
    std::atomic<uint64_t> parks{0};

    void bump(std::atomic<uint64_t>& c,
              std::memory_order order = std::memory_order_relaxed) {
      c.store(c.load(std::memory_order_relaxed) + 1, order);
    }
  };

  void worker_loop(int id);
  bool try_run_one(int id);
  bool victims_look_nonempty(int id) const;
  void run_task(Worker& w, TaskNode* task);
  bool quiescent() const;
  void wake_parked_finisher();
  Worker& enter_finish();
  void work_until_quiescent() noexcept;

  int thread_count_ = 0;
  std::vector<std::unique_ptr<Worker>> slots_;
  std::vector<std::thread> workers_;

  EventCount idle_;
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> heap_fallbacks_{0};
  // Slot 0's claim: set by the thread inside finish() for the scope.
  std::atomic<bool> finishing_{false};
  // Set while the finisher is parked on idle_; idle workers then check
  // quiescence and wake it.
  std::atomic<bool> finisher_parked_{false};
};

/// Default worker count: hardware concurrency, at least 1.
int default_thread_count();

}  // namespace cuttlefish::runtime
