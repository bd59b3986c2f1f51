#include "runtime/scheduler.hpp"

namespace cuttlefish::runtime {

namespace detail {
constinit thread_local TaskScheduler* t_scheduler = nullptr;
constinit thread_local int t_worker_id = -1;
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
// acquire path (pop -> backed-off steals) kSpinRounds times, then yields
// to the OS kYieldRounds times, then parks on the eventcount. Steal
// attempts inside one acquire pass back off exponentially (1, 2, 4, ...
// pauses) instead of the seed's fixed 2*n sweep, so a starved pool ramps
// down its cache-line traffic instead of hammering every victim's top
// pointer.
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
  // Slot 0 belongs to whichever thread is inside finish().
  workers_.reserve(static_cast<size_t>(threads - 1));
  for (int i = 1; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

TaskScheduler::~TaskScheduler() {
  // Every finish ran to quiescence and async() needs an open scope, so
  // the deques are empty; the slabs reclaim the nodes wholesale.
  shutdown_.store(true, std::memory_order_seq_cst);
  idle_.notify_all();
  for (auto& t : workers_) t.join();
}

void TaskScheduler::reserve(int per_worker) {
  CF_ASSERT(per_worker >= 0, "reserve needs a non-negative count");
  for (auto& w : slots_) w->slab.reserve(static_cast<size_t>(per_worker));
}

void TaskScheduler::run_task(Worker& w, TaskNode* task) {
  task->execute();
  TaskSlab::release(task, &w.slab);
  // Release store, after the slab release: a finisher that acquires this
  // count sees the task's effects and spawns, and no later access to the
  // node by this worker.
  w.bump(w.completed, std::memory_order_release);
}

bool TaskScheduler::try_run_one(int id) {
  Worker& self = *slots_[static_cast<size_t>(id)];
  TaskNode* task = nullptr;
  if (self.deque.pop(task)) {
    // Burst: drain the local deque without returning to the outer loop —
    // thieves handle redistribution meanwhile.
    do {
      run_task(self, task);
    } while (self.deque.pop(task));
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
    // Slot 0 is the finisher: it stops stealing once the scope is
    // quiescent, so finish() returns without sitting out the backoff.
    if (id == 0 && quiescent()) return false;
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

bool TaskScheduler::quiescent() const {
  // Completions first, then spawns. A task is spawned before it
  // completes, and its children are spawned before it completes, so every
  // completion counted here has its spawn — and its children's spawns —
  // counted by the second sum. Equal sums therefore mean every counted
  // spawn completed, the root's subtree included.
  uint64_t completed = 0;
  for (const auto& w : slots_) {
    completed += w->completed.load(std::memory_order_acquire);
  }
  uint64_t spawned = 0;
  for (const auto& w : slots_) {
    spawned += w->spawned.load(std::memory_order_relaxed);
  }
  return completed == spawned;
}

void TaskScheduler::wake_parked_finisher() {
  // Pairs with the fence in the finisher's park path: either its
  // quiescence recheck sees this worker's completions, or this load sees
  // it parked. Costs one fence and one read of a read-mostly flag per
  // idle round; counters are summed only while the finisher is parked.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (finisher_parked_.load(std::memory_order_relaxed) && quiescent()) {
    idle_.notify_all();
  }
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
    wake_parked_finisher();
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

TaskScheduler::Worker& TaskScheduler::enter_finish() {
  CF_ASSERT(t_scheduler == nullptr, "nested finish from inside a task");
  CF_ASSERT(!finishing_.exchange(true, std::memory_order_acquire),
            "one finish scope at a time: another thread is inside finish");
  t_scheduler = this;
  t_worker_id = 0;
  return *slots_[0];
}

void TaskScheduler::work_until_quiescent() noexcept {
  // Worker 0's loop: the same acquire path and spin -> yield -> park
  // schedule as worker_loop, plus the quiescence check on every idle
  // round. noexcept: a task that throws ends the program, as on the pool
  // threads.
  Worker& self = *slots_[0];
  int idle_rounds = 0;
  for (;;) {
    if (try_run_one(0)) {
      idle_rounds = 0;
      continue;
    }
    if (quiescent()) break;
    ++idle_rounds;
    if (idle_rounds <= kSpinRounds) continue;
    if (idle_rounds <= kSpinRounds + kYieldRounds) {
      std::this_thread::yield();
      continue;
    }
    // Park until a spawn, or an idle worker that finds the scope
    // quiescent, bumps the epoch. The flag is raised before the ticket's
    // fence, so a worker whose last completion this recheck misses sees
    // the flag (see wake_parked_finisher).
    finisher_parked_.store(true, std::memory_order_relaxed);
    const uint64_t ticket = idle_.prepare_wait();
    const bool done = quiescent();
    if (done || try_run_one(0) || victims_look_nonempty(0)) {
      idle_.cancel_wait();
    } else {
      self.bump(self.parks);
      idle_.commit_wait(ticket);
    }
    finisher_parked_.store(false, std::memory_order_relaxed);
    if (done) break;
    idle_rounds = 0;
  }
  t_scheduler = nullptr;
  t_worker_id = -1;
  finishing_.store(false, std::memory_order_release);
}

bool TaskScheduler::want_more_work() const {
  if (t_scheduler != this) return true;
  return slots_[static_cast<size_t>(t_worker_id)]->deque.size_estimate() == 0;
}

TaskScheduler::Stats TaskScheduler::stats() const {
  Stats s;
  for (const auto& w : slots_) {
    s.executed += w->completed.load(std::memory_order_relaxed);
    s.steals += w->steals.load(std::memory_order_relaxed);
    s.steal_attempts += w->steal_attempts.load(std::memory_order_relaxed);
    s.parks += w->parks.load(std::memory_order_relaxed);
    s.slab_blocks += w->slab.blocks_allocated();
  }
  s.heap_fallbacks = heap_fallbacks_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace cuttlefish::runtime
