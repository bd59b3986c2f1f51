// Runtime hot-path microbenchmarks: spawn+execute throughput, recursive
// fib-style spawn trees, steal behaviour and quiesce (finish round-trip)
// latency — for the slab/eventcount TaskScheduler against the seed's
// std::function + operator new + mutex-injection + 50µs-condvar-poll
// design (reproduced below as LegacyScheduler). Results go to
// BENCH_runtime.json so the before/after claim is recorded next to the
// paper-facing BENCH files.
//
// Self-contained (no google-benchmark): run ./micro_runtime [out.json].
// CF_BENCH_SMOKE=1 shrinks the workload for CI smoke runs;
// CF_BENCH_THREADS overrides the worker count.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "runtime/deque.hpp"
#include "runtime/scheduler.hpp"

namespace {

using cuttlefish::SplitMix64;
using cuttlefish::runtime::ChaseLevDeque;
using cuttlefish::runtime::TaskScheduler;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- the seed runtime, verbatim in miniature --------------------------------
// Heap-allocated std::function tasks, mutex-protected injection vector,
// unconditional notify per spawn, fixed 50µs/1ms condvar idle polling and a
// fixed 2n-attempt steal sweep: the per-task overheads the tentpole removed.

class LegacyScheduler {
 public:
  using Task = std::function<void()>;

  explicit LegacyScheduler(int threads) : thread_count_(threads) {
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

  ~LegacyScheduler() {
    shutdown_.store(true);
    idle_cv_.notify_all();
    for (auto& t : workers_) t.join();
    for (Task* t : injected_) delete t;
    Task* task = nullptr;
    for (auto& slot : slots_) {
      while (slot->deque.pop(task)) delete task;
    }
  }

  void async(Task task) {
    pending_.fetch_add(1, std::memory_order_relaxed);
    enqueue(new Task(std::move(task)));
  }

  void finish(Task root) {
    async(std::move(root));
    std::unique_lock<std::mutex> lock(idle_mutex_);
    quiesce_cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }

  uint64_t executed() const {
    uint64_t total = 0;
    for (const auto& w : slots_) total += w->executed;
    return total;
  }

  static thread_local int t_worker_id;

 private:
  struct Worker {
    ChaseLevDeque<Task*> deque;
    SplitMix64 rng{0};
    uint64_t executed = 0;
    char pad[64];
  };

  void enqueue(Task* task) {
    const int id = t_worker_id;
    if (id >= 0 && id < thread_count_) {
      slots_[static_cast<size_t>(id)]->deque.push(task);
    } else {
      std::lock_guard<std::mutex> lock(inject_mutex_);
      injected_.push_back(task);
    }
    idle_cv_.notify_one();
  }

  void run_task(int id, Task* task) {
    (*task)();
    delete task;
    slots_[static_cast<size_t>(id)]->executed += 1;
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(idle_mutex_);
      quiesce_cv_.notify_all();
    }
  }

  bool try_run_one(int id) {
    Worker& self = *slots_[static_cast<size_t>(id)];
    Task* task = nullptr;
    if (self.deque.pop(task)) {
      run_task(id, task);
      return true;
    }
    task = nullptr;
    {
      std::lock_guard<std::mutex> lock(inject_mutex_);
      if (!injected_.empty()) {
        task = injected_.back();
        injected_.pop_back();
      }
    }
    if (task != nullptr) {
      run_task(id, task);
      return true;
    }
    const int n = thread_count_;
    for (int attempt = 0; attempt < 2 * n; ++attempt) {
      const int victim =
          static_cast<int>(self.rng.next_below(static_cast<uint64_t>(n)));
      if (victim == id) continue;
      if (slots_[static_cast<size_t>(victim)]->deque.steal(task)) {
        run_task(id, task);
        return true;
      }
    }
    return false;
  }

  void worker_loop(int id) {
    t_worker_id = id;
    while (!shutdown_.load(std::memory_order_acquire)) {
      if (try_run_one(id)) continue;
      std::unique_lock<std::mutex> lock(idle_mutex_);
      if (shutdown_.load(std::memory_order_acquire)) break;
      if (pending_.load(std::memory_order_acquire) != 0) {
        idle_cv_.wait_for(lock, std::chrono::microseconds(50));
      } else {
        idle_cv_.wait_for(lock, std::chrono::milliseconds(1));
      }
    }
    t_worker_id = -1;
  }

  int thread_count_ = 0;
  std::vector<std::unique_ptr<Worker>> slots_;
  std::vector<std::thread> workers_;
  std::mutex inject_mutex_;
  std::vector<Task*> injected_;
  std::atomic<uint64_t> pending_{0};
  std::atomic<bool> shutdown_{false};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::condition_variable quiesce_cv_;
};

thread_local int LegacyScheduler::t_worker_id = -1;

// --- workloads --------------------------------------------------------------

uint64_t executed_of(const LegacyScheduler& rt) { return rt.executed(); }
uint64_t executed_of(const TaskScheduler& rt) { return rt.stats().executed; }

// Empty-task spawn+execute throughput: `batches` finish scopes of `batch`
// truly empty asyncs. Task completion is verified through the schedulers'
// own executed counters so the measured body carries no atomic of its own
// diluting the per-task differential.
template <typename Sched>
double bench_spawn(Sched& rt, int batches, int batch) {
  const uint64_t before = executed_of(rt);
  const double t0 = now_s();
  for (int b = 0; b < batches; ++b) {
    rt.finish([&] {
      for (int i = 0; i < batch; ++i) {
        rt.async([] {});
      }
    });
  }
  const double dt = now_s() - t0;
  const uint64_t total = static_cast<uint64_t>(batches) * batch;
  // +1 executed per finish root.
  if (executed_of(rt) - before !=
      total + static_cast<uint64_t>(batches)) {
    std::fprintf(stderr, "spawn bench lost tasks!\n");
    std::exit(1);
  }
  return static_cast<double>(total) / dt;
}

// Recursive binary spawn tree (fib shape): every internal node spawns two
// children — the classic async-finish stress where spawn overhead and
// steal latency dominate. Returns tasks/second.
template <typename Sched>
struct FibTree {
  static void go(Sched& rt, int depth) {
    if (depth == 0) return;
    rt.async([&rt, depth] { go(rt, depth - 1); });
    go(rt, depth - 1);
  }
};

template <typename Sched>
double bench_tree(Sched& rt, int depth, int reps) {
  const uint64_t before = executed_of(rt);
  const double t0 = now_s();
  for (int r = 0; r < reps; ++r) {
    rt.finish([&] { FibTree<Sched>::go(rt, depth); });
  }
  const double dt = now_s() - t0;
  // Each level-d call spawns one child and recurses the other inline:
  // 2^depth - 1 spawned tasks per rep, plus the finish root.
  const uint64_t expect =
      static_cast<uint64_t>(reps) * (uint64_t{1} << depth);
  if (executed_of(rt) - before != expect) {
    std::fprintf(stderr, "tree bench lost tasks!\n");
    std::exit(1);
  }
  return static_cast<double>(expect) / dt;
}

// Quiesce latency: empty finish scopes — measures wake + drain + quiesce
// detection round trip. Returns microseconds per finish.
template <typename Sched>
double bench_quiesce(Sched& rt, int reps) {
  const double t0 = now_s();
  for (int r = 0; r < reps; ++r) {
    rt.finish([] {});
  }
  return (now_s() - t0) / reps * 1e6;
}

struct Numbers {
  double spawn_per_s = 0;
  double tree_per_s = 0;
  double quiesce_us = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = std::getenv("CF_BENCH_SMOKE") != nullptr;
  const char* tenv = std::getenv("CF_BENCH_THREADS");
  // Clamp to >=1: a zero/garbage override would otherwise hang finish()
  // on a pool with no workers.
  const int threads = std::max(
      1, tenv != nullptr
             ? std::atoi(tenv)
             : std::min(4, cuttlefish::runtime::default_thread_count()));
  const int batches = smoke ? 20 : 200;
  const int batch = 1000;
  const int tree_depth = smoke ? 10 : 14;
  const int tree_reps = smoke ? 3 : 10;
  const int quiesce_reps = smoke ? 200 : 2000;

  std::printf("micro_runtime: %d workers, %s mode\n", threads,
              smoke ? "smoke" : "full");

  Numbers legacy;
  {
    LegacyScheduler rt(threads);
    legacy.spawn_per_s = bench_spawn(rt, batches, batch);
    legacy.tree_per_s = bench_tree(rt, tree_depth, tree_reps);
    legacy.quiesce_us = bench_quiesce(rt, quiesce_reps);
  }

  Numbers opt;
  uint64_t steals = 0, steal_attempts = 0, parks = 0, slab_blocks = 0,
           heap_fallbacks = 0;
  {
    TaskScheduler rt(threads);
    rt.reserve(2 * batch);
    opt.spawn_per_s = bench_spawn(rt, batches, batch);
    opt.tree_per_s = bench_tree(rt, tree_depth, tree_reps);
    opt.quiesce_us = bench_quiesce(rt, quiesce_reps);
    const auto s = rt.stats();
    steals = s.steals;
    steal_attempts = s.steal_attempts;
    parks = s.parks;
    slab_blocks = s.slab_blocks;
    heap_fallbacks = s.heap_fallbacks;
  }

  const double spawn_x = opt.spawn_per_s / legacy.spawn_per_s;
  const double tree_x = opt.tree_per_s / legacy.tree_per_s;
  std::printf("  spawn+execute: %10.0f/s -> %10.0f/s  (%.2fx)\n",
              legacy.spawn_per_s, opt.spawn_per_s, spawn_x);
  std::printf("  spawn tree:    %10.0f/s -> %10.0f/s  (%.2fx)\n",
              legacy.tree_per_s, opt.tree_per_s, tree_x);
  std::printf("  quiesce:       %10.2fus -> %9.2fus\n", legacy.quiesce_us,
              opt.quiesce_us);
  std::printf("  optimized: %llu steals / %llu attempts, %llu parks, "
              "%llu slab blocks, %llu heap fallbacks\n",
              static_cast<unsigned long long>(steals),
              static_cast<unsigned long long>(steal_attempts),
              static_cast<unsigned long long>(parks),
              static_cast<unsigned long long>(slab_blocks),
              static_cast<unsigned long long>(heap_fallbacks));

  const std::string out = argc > 1 ? argv[1] : "BENCH_runtime.json";
  cuttlefish::benchharness::JsonWriter json;
  json.field("threads", threads);
  json.field("smoke", smoke);
  {
    cuttlefish::benchharness::JsonWriter b;
    b.field("spawn_tasks_per_s", legacy.spawn_per_s, 0);
    b.field("tree_tasks_per_s", legacy.tree_per_s, 0);
    b.field("quiesce_us", legacy.quiesce_us, 3);
    json.raw("baseline", b.compact());
  }
  {
    cuttlefish::benchharness::JsonWriter o;
    o.field("spawn_tasks_per_s", opt.spawn_per_s, 0);
    o.field("tree_tasks_per_s", opt.tree_per_s, 0);
    o.field("quiesce_us", opt.quiesce_us, 3);
    o.field("steals", static_cast<int64_t>(steals));
    o.field("steal_attempts", static_cast<int64_t>(steal_attempts));
    o.field("parks", static_cast<int64_t>(parks));
    o.field("slab_blocks", static_cast<int64_t>(slab_blocks));
    o.field("heap_fallbacks", static_cast<int64_t>(heap_fallbacks));
    json.raw("optimized", o.compact());
  }
  {
    cuttlefish::benchharness::JsonWriter s;
    s.field("spawn", spawn_x, 3);
    s.field("tree", tree_x, 3);
    json.raw("speedup", s.compact());
  }
  return json.write(out) ? 0 : 1;
}
