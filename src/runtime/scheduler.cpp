#include "runtime/scheduler.hpp"

#include "common/assert.hpp"

namespace cuttlefish::runtime {

namespace detail {
thread_local TaskScheduler* t_scheduler = nullptr;
thread_local int t_worker_id = -1;
}  // namespace detail

using detail::t_scheduler;
using detail::t_worker_id;

namespace {

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Idle protocol tuning. A worker that finds nothing retries the full
// acquire path (pop -> drain injection -> backed-off steals) kSpinRounds
// times, then yields to the OS kYieldRounds times, then parks on the
// eventcount. Steal attempts inside one acquire pass back off
// exponentially (1, 2, 4, ... pauses) instead of the seed's fixed 2*n
// sweep, so a starved pool ramps down its cache-line traffic instead of
// hammering every victim's top pointer.
constexpr int kSpinRounds = 2;
constexpr int kYieldRounds = 16;
constexpr int kStealAttempts = 8;
constexpr int kMaxPauseDelay = 128;

}  // namespace

int default_thread_count() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int TaskScheduler::current_worker() { return t_worker_id; }

TaskScheduler::TaskScheduler(int threads) : thread_count_(threads) {
  CF_ASSERT(threads > 0, "scheduler needs at least one worker");
  slots_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    auto w = std::make_unique<Worker>();
    w->rng = SplitMix64(0x7a5c3ULL + static_cast<uint64_t>(i));
    slots_.push_back(std::move(w));
  }
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

TaskScheduler::~TaskScheduler() {
  shutdown_.store(true, std::memory_order_seq_cst);
  idle_.notify_all();
  for (auto& t : workers_) t.join();
  // Destroy anything never executed (shutdown mid-finish is a programming
  // error, but bound callables must still have their destructors run; the
  // nodes themselves are reclaimed wholesale by the slab destructors).
  for (TaskNode* n = injected_.drain(); n != nullptr;) {
    TaskNode* next = n->next;
    n->destroy();
    n = next;
  }
  TaskNode* task = nullptr;
  for (auto& slot : slots_) {
    while (slot->deque.pop(task)) task->destroy();
  }
}

void TaskScheduler::reserve(int per_worker) {
  CF_ASSERT(per_worker >= 0, "reserve needs a non-negative count");
  for (auto& w : slots_) w->slab.reserve(static_cast<size_t>(per_worker));
  external_slab_.reserve(static_cast<size_t>(per_worker));
}

TaskNode* TaskScheduler::allocate_external() {
  // External spawns (finish roots, control-plane threads) are off the hot
  // path; their slab's owner ops are serialised by a mutex. Workers still
  // free these nodes lock-free via the slab's remote-return stack.
  std::lock_guard<std::mutex> lock(external_mutex_);
  return external_slab_.allocate();
}

bool TaskScheduler::drain_injected(int id) {
  TaskNode* chain = injected_.drain();
  if (chain == nullptr) return false;
  Worker& self = *slots_[static_cast<size_t>(id)];
  int moved = 0;
  while (chain != nullptr) {
    TaskNode* next = chain->next;
    // Chain is newest-first; pushing in traversal order leaves the oldest
    // at the bottom of the deque where the owner pops first.
    self.deque.push(chain);
    chain = next;
    ++moved;
  }
  if (moved > 1) idle_.notify_all();  // surplus work is up for stealing
  return true;
}

void TaskScheduler::run_task(Worker& w, TaskNode* task) {
  task->execute();
  TaskSlab::release(task, &w.slab);
  // Count before the pending_ decrement: once pending_ hits zero,
  // finish() returns and may read stats() immediately.
  w.bump(w.executed);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(quiesce_mutex_);
    quiesce_cv_.notify_all();
  }
}

bool TaskScheduler::try_run_one(int id) {
  Worker& self = *slots_[static_cast<size_t>(id)];
  TaskNode* task = nullptr;
  if (self.deque.pop(task)) {
    // Burst: drain the local deque without returning to the outer loop —
    // thieves and the injection drain handle redistribution meanwhile.
    do {
      run_task(self, task);
    } while (self.deque.pop(task));
    return true;
  }
  if (drain_injected(id) && self.deque.pop(task)) {
    run_task(self, task);
    return true;
  }
  const int n = size();
  if (n == 1) return false;
  int delay = 1;
  for (int attempt = 0; attempt < kStealAttempts; ++attempt) {
    const int victim =
        static_cast<int>(self.rng.next_below(static_cast<uint64_t>(n)));
    if (victim != id) {
      self.bump(self.steal_attempts);
      if (slots_[static_cast<size_t>(victim)]->deque.steal(task)) {
        self.bump(self.steals);
        run_task(self, task);
        return true;
      }
    }
    for (int p = 0; p < delay; ++p) cpu_pause();
    if (delay < kMaxPauseDelay) delay *= 2;
  }
  return false;
}

bool TaskScheduler::victims_look_nonempty(int id) const {
  for (int v = 0; v < thread_count_; ++v) {
    if (v == id) continue;
    if (slots_[static_cast<size_t>(v)]->deque.size_estimate() > 0) {
      return true;
    }
  }
  return false;
}

void TaskScheduler::worker_loop(int id) {
  t_scheduler = this;
  t_worker_id = id;
  Worker& self = *slots_[static_cast<size_t>(id)];
  int idle_rounds = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    if (try_run_one(id)) {
      idle_rounds = 0;
      continue;
    }
    // Spin -> yield -> park. The first rounds retry at full speed (work
    // often arrives within a steal round trip), then we yield the core,
    // and only then pay the futex sleep via the eventcount.
    ++idle_rounds;
    if (idle_rounds <= kSpinRounds) continue;
    if (idle_rounds <= kSpinRounds + kYieldRounds) {
      std::this_thread::yield();
      continue;
    }
    const uint64_t ticket = idle_.prepare_wait();
    if (shutdown_.load(std::memory_order_acquire)) {
      idle_.cancel_wait();
      break;
    }
    // Final recheck after announcing ourselves as a waiter: any spawn
    // published before our prepare_wait is found here; any spawn after it
    // sees our waiter count and bumps the epoch (see eventcount.hpp).
    if (try_run_one(id)) {
      idle_.cancel_wait();
      idle_rounds = 0;
      continue;
    }
    // try_run_one's randomized steals can miss a non-empty victim (with 8
    // uniform picks the miss probability is material at larger n), and a
    // parked worker is only woken by a *future* spawn — so a miss here
    // would serialise an existing backlog. Sweep every victim
    // deterministically before committing to sleep.
    if (victims_look_nonempty(id)) {
      idle_.cancel_wait();
      continue;  // back to the backed-off steal rounds, not to sleep
    }
    self.bump(self.parks);
    idle_.commit_wait(ticket);
    idle_rounds = 0;
  }
  t_worker_id = -1;
  t_scheduler = nullptr;
}

void TaskScheduler::finish_begin() {
  CF_ASSERT(t_scheduler != this, "nested finish from inside a task");
}

void TaskScheduler::finish_wait() {
  std::unique_lock<std::mutex> lock(quiesce_mutex_);
  quiesce_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

bool TaskScheduler::want_more_work() const {
  if (t_scheduler != this) return true;
  return slots_[static_cast<size_t>(t_worker_id)]->deque.size_estimate() == 0;
}

TaskScheduler::Stats TaskScheduler::stats() const {
  Stats s;
  for (const auto& w : slots_) {
    s.executed += w->executed.load(std::memory_order_relaxed);
    s.steals += w->steals.load(std::memory_order_relaxed);
    s.steal_attempts += w->steal_attempts.load(std::memory_order_relaxed);
    s.parks += w->parks.load(std::memory_order_relaxed);
    s.slab_blocks += w->slab.blocks_allocated();
  }
  s.slab_blocks += external_slab_.blocks_allocated();
  s.heap_fallbacks = heap_fallbacks_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace cuttlefish::runtime
