// Runtime hot-path microbenchmarks, in two sections.
//
// Hot path: spawn+execute throughput, recursive fib-style spawn trees,
// steal behaviour and quiesce (finish round-trip) latency — for the
// slab/eventcount TaskScheduler against the seed's std::function +
// operator new + mutex-injection + 50µs-condvar-poll design (reproduced
// below as LegacyScheduler).
//
// Kernels: the paper's fine-grained kernels at 1, 2 and 4 workers against
// the sequential code they parallelise — UTS with 44,000 root children,
// and heat 257² for 100 steps in its lbs, irt and ws decompositions.
// Every timed run's output is checked against the sequential result; a
// mismatch exits non-zero. CF_BENCH_GATE=1 also enforces ROADMAP item 1's
// gates: heat lbs and irt beat heat_step_seq at 2 and 4 workers, and UTS
// at 4 workers is at least 2x faster than at 1 worker and faster than the
// sequential walk.
//
// Results, with host, compiler, build type and git sha, go to
// BENCH_runtime.json next to the paper-facing BENCH files.
//
// Self-contained (no google-benchmark): run ./micro_runtime [out.json]
// from the checkout (the sha comes from `git describe --always --dirty`).
// CF_BENCH_SMOKE=1 shrinks the workload for CI smoke runs;
// CF_BENCH_THREADS overrides the hot-path section's worker count.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "runtime/deque.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/kernels/stencil.hpp"
#include "workloads/kernels/uts.hpp"

namespace {

using cuttlefish::SplitMix64;
using cuttlefish::runtime::ChaseLevDeque;
using cuttlefish::runtime::DagShape;
using cuttlefish::runtime::TaskScheduler;
using cuttlefish::workloads::Grid2D;

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

// --- kernels vs their sequential loops --------------------------------------

constexpr int64_t kHeatN = 257;
constexpr int kHeatSteps = 100;
constexpr int kUtsRootChildren = 44000;
constexpr uint64_t kUtsSeed = 1000;
constexpr int kKernelWorkers[] = {1, 2, 4};
constexpr const char* kKernelWorkerKeys[] = {"w1", "w2", "w4"};
constexpr const char* kSeqKeys[] = {"seq_w1", "seq_w2", "seq_w4"};

/// Quartiles of a cell's run times (nearest rank).
struct Spread {
  double p25 = 0, p50 = 0, p75 = 0;
};

Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  auto at = [&v](double q) {
    return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5)];
  };
  return {at(0.25), at(0.5), at(0.75)};
}

void mismatch(const char* kernel, int workers) {
  std::fprintf(stderr, "%s at %d workers disagrees with the sequential "
               "kernel\n", kernel, workers);
  std::exit(1);
}

/// Heat 257² with a hot top row; `step(in, out)` advances one step.
class HeatProblem {
 public:
  HeatProblem() : initial_(kHeatN, kHeatN, 0.0) {
    for (int64_t c = 0; c < kHeatN; ++c) initial_.at(0, c) = 100.0;
  }

  /// Runs kHeatSteps steps from the initial grid; returns the elapsed ms
  /// and leaves the result's checksum in *checksum.
  template <typename Step>
  double run(Step&& step, double* checksum) const {
    Grid2D a = initial_;
    Grid2D b = initial_;
    const double t0 = now_s();
    for (int s = 0; s < kHeatSteps; ++s) {
      step(a, b);
      std::swap(a, b);
    }
    const double ms = (now_s() - t0) * 1e3;
    *checksum = a.checksum();
    return ms;
  }

 private:
  Grid2D initial_;
};

struct KernelRow {
  const char* name = "";
  Spread ms[3];      // at kKernelWorkers
  Spread seq_ms[3];  // its sequential loop, same block
};

/// Times every kernel at each worker count against its sequential loop,
/// one pool at a time. Within a worker count's block, runs go
/// round-robin over the sequential and the parallel kernels, `reps`
/// rounds after one untimed warm-up round, so drift in the host's speed
/// hits a kernel and its sequential loop alike. Each cell reports its
/// quartiles; each run returns its own elapsed ms, so set-up such as grid
/// resets stays untimed.
std::vector<KernelRow> bench_kernels(int reps) {
  namespace wl = cuttlefish::workloads;
  using Step = std::function<void(const Grid2D&, Grid2D&)>;
  const HeatProblem heat;
  wl::UtsParams uts;
  uts.root_seed = kUtsSeed;
  uts.root_branching = kUtsRootChildren;
  const uint64_t uts_ref = wl::uts_count_sequential(uts);
  const Step seq_step = wl::heat_step_seq;
  double heat_ref = 0;
  heat.run(seq_step, &heat_ref);

  auto time_uts = [&](TaskScheduler* rt, int workers) {
    const double t0 = now_s();
    const uint64_t nodes = rt == nullptr ? wl::uts_count_sequential(uts)
                                         : wl::uts_count_parallel(*rt, uts);
    const double ms = (now_s() - t0) * 1e3;
    if (nodes != uts_ref) mismatch("uts", workers);
    return ms;
  };
  auto time_heat = [&](const Step& step, const char* name, int workers) {
    double sum = 0;
    const double ms = heat.run(step, &sum);
    if (sum != heat_ref) mismatch(name, workers);
    return ms;
  };

  std::vector<KernelRow> rows(4);
  const char* const names[] = {"uts", "heat_lbs", "heat_irt", "heat_ws"};
  for (size_t v = 0; v < rows.size(); ++v) rows[v].name = names[v];
  for (int k = 0; k < 3; ++k) {
    const int workers = kKernelWorkers[k];
    TaskScheduler rt(workers);
    const Step steps[] = {
        [&rt](const Grid2D& in, Grid2D& out) {
          wl::heat_step_lbs(rt, in, out);
        },
        [&rt](const Grid2D& in, Grid2D& out) {
          wl::heat_step_tasks(rt, in, out, DagShape::kIrregular);
        },
        [&rt](const Grid2D& in, Grid2D& out) {
          wl::heat_step_ws(rt, in, out);
        }};
    // One cell per timed configuration: the number it fills in and the run.
    Spread uts_seq, heat_seq;
    std::vector<std::pair<Spread*, std::function<double()>>> cells;
    cells.emplace_back(&uts_seq, [&] { return time_uts(nullptr, 1); });
    cells.emplace_back(&rows[0].ms[k],
                       [&] { return time_uts(&rt, workers); });
    cells.emplace_back(&heat_seq,
                       [&] { return time_heat(seq_step, "heat_seq", 1); });
    for (size_t v = 0; v < 3; ++v) {
      KernelRow& row = rows[v + 1];
      cells.emplace_back(&row.ms[k], [&, v] {
        return time_heat(steps[v], row.name, workers);
      });
    }
    std::vector<std::vector<double>> samples(cells.size());
    for (int r = -1; r < reps; ++r) {
      for (size_t c = 0; c < cells.size(); ++c) {
        const double ms = cells[c].second();
        if (r >= 0) samples[c].push_back(ms);
      }
    }
    for (size_t c = 0; c < cells.size(); ++c) {
      *cells[c].first = spread_of(std::move(samples[c]));
    }
    rows[0].seq_ms[k] = uts_seq;
    for (size_t v = 1; v < rows.size(); ++v) rows[v].seq_ms[k] = heat_seq;
  }
  return rows;
}

/// ROADMAP item 1's kernel gates, each against the sequential loop timed
/// in the same block; prints each and returns true when all hold. rows:
/// uts, heat_lbs, heat_irt, heat_ws; ms[] at 1, 2, 4 workers.
bool kernel_gates_hold(const std::vector<KernelRow>& rows) {
  bool ok = true;
  auto gate = [&ok](bool pass, const std::string& what) {
    std::printf("  gate %-4s %s\n", pass ? "ok" : "FAIL", what.c_str());
    ok = ok && pass;
  };
  char buf[160];
  for (size_t v = 1; v <= 2; ++v) {
    for (int k = 1; k < 3; ++k) {
      const double ms = rows[v].ms[k].p50, seq = rows[v].seq_ms[k].p50;
      std::snprintf(buf, sizeof(buf), "%s at %d workers %.2f ms < seq %.2f ms",
                    rows[v].name, kKernelWorkers[k], ms, seq);
      gate(ms < seq, buf);
    }
  }
  const double w1 = rows[0].ms[0].p50, w4 = rows[0].ms[2].p50;
  const double seq4 = rows[0].seq_ms[2].p50;
  std::snprintf(buf, sizeof(buf), "uts 4 workers %.2f ms <= 1 worker %.2f ms / 2",
                w4, w1);
  gate(2.0 * w4 <= w1, buf);
  std::snprintf(buf, sizeof(buf), "uts 4 workers %.2f ms < seq %.2f ms", w4,
                seq4);
  gate(w4 < seq4, buf);
  return ok;
}

std::string quartiles_json(const Spread& s) {
  return "[" + cuttlefish::json::number(s.p25, 3) + ", " +
         cuttlefish::json::number(s.p50, 3) + ", " +
         cuttlefish::json::number(s.p75, 3) + "]";
}

// --- provenance ---------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string git_sha() {
  std::string sha;
  if (FILE* p = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), p) != nullptr) sha = buf;
    pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == ' ')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

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

  const int kernel_reps = smoke ? 3 : 21;
  const std::vector<KernelRow> kernels = bench_kernels(kernel_reps);
  std::printf("  kernels, median of %d runs (ms), (seq) timed in the same "
              "block:\n                  1w   (seq)       2w   (seq)       "
              "4w   (seq)\n", kernel_reps);
  for (const KernelRow& k : kernels) {
    std::printf("    %-9s", k.name);
    for (int w = 0; w < 3; ++w) {
      std::printf(" %7.2f (%5.2f)", k.ms[w].p50, k.seq_ms[w].p50);
    }
    std::printf("\n");
  }
  const bool gate = std::getenv("CF_BENCH_GATE") != nullptr;
  const bool gates_hold = kernel_gates_hold(kernels);

  const std::string out = argc > 1 ? argv[1] : "BENCH_runtime.json";
  cuttlefish::benchharness::JsonWriter json;
  {
    cuttlefish::benchharness::JsonWriter p;
    p.field("cpu_model", cpu_model());
    p.field("nproc", cuttlefish::runtime::default_thread_count());
    p.field("compiler", std::string(CF_BENCH_COMPILER));
    p.field("build_type", std::string(CF_BENCH_BUILD_TYPE));
    p.field("git_sha", git_sha());
    json.raw("provenance", p.compact());
  }
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
  {
    cuttlefish::benchharness::JsonWriter k;
    k.field("reps", kernel_reps);
    k.field("statistic", std::string("[p25, median, p75] ms"));
    for (const KernelRow& row : kernels) {
      cuttlefish::benchharness::JsonWriter r;
      for (int w = 0; w < 3; ++w) {
        r.raw(kKernelWorkerKeys[w], quartiles_json(row.ms[w]));
        r.raw(kSeqKeys[w], quartiles_json(row.seq_ms[w]));
      }
      k.raw(row.name, r.compact());
    }
    k.field("gates_hold", gates_hold);
    json.raw("kernels", k.compact());
  }
  json.write(out);
  if (gate && !gates_hold) {
    std::fprintf(stderr, "micro_runtime: kernel gate failed\n");
    return 1;
  }
  return 0;
}
