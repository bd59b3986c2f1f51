// TaskScheduler churn test: one million empty asyncs through a warmed-up
// scheduler must perform ZERO heap allocations — the tentpole guarantee
// that makes the runtime's own overhead invisible to the controller's
// joules-per-instruction signals. Verified by replacing global
// operator new/delete with counting versions and asserting the count is
// flat across the steady-state phase.
//
// Also exercised under the ASan/TSan ctest configurations; the slab's
// remote-return stack gets real cross-thread traffic here (tasks spawned
// by the finish caller, worker 0, are stolen and freed by pool threads).

#include "runtime/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_news{0};

}  // namespace

// Counting replacements for the global allocation functions. Sized/aligned
// variants all funnel through these four.
void* operator new(size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cuttlefish::runtime {
namespace {

constexpr int kBatches = 1000;
constexpr int kTasksPerBatch = 1000;  // 1M asyncs total

TEST(TaskSchedulerChurn, SteadyStateSpawnsAllocateNothing) {
  TaskScheduler rt(4);
  std::atomic<uint64_t> ran{0};

  // Pre-grow every slab past the per-batch live-task high-water mark, then
  // warm up so deques and the quiesce path have also reached steady state.
  // (Without reserve() the zero would still be reached, but only after
  // every worker has had a turn as the batch's heavy spawner.)
  rt.reserve(2 * kTasksPerBatch);
  for (int batch = 0; batch < 3; ++batch) {
    rt.finish([&] {
      for (int i = 0; i < kTasksPerBatch; ++i) {
        rt.async([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  const uint64_t warm_ran = ran.load();
  const uint64_t warm_blocks = rt.stats().slab_blocks;

  const uint64_t allocs_before = g_news.load(std::memory_order_relaxed);
  for (int batch = 0; batch < kBatches; ++batch) {
    rt.finish([&] {
      for (int i = 0; i < kTasksPerBatch; ++i) {
        rt.async([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  const uint64_t allocs_after = g_news.load(std::memory_order_relaxed);
  const auto stats = rt.stats();

  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state spawn path must not touch the heap";
  EXPECT_EQ(ran.load() - warm_ran,
            static_cast<uint64_t>(kBatches) * kTasksPerBatch);
  EXPECT_EQ(stats.heap_fallbacks, 0u)
      << "every spawned callable must fit TaskNode's inline storage";
  EXPECT_EQ(stats.slab_blocks, warm_blocks)
      << "slabs must recycle nodes, not grow, once warmed up";
}

TEST(TaskSchedulerChurn, OversizedCallablesFallBackButStillRun) {
  TaskScheduler rt(2);
  struct Big {
    char bytes[128];
  };
  Big big{};
  big.bytes[0] = 1;
  std::atomic<int> ran{0};
  rt.finish([&] {
    for (int i = 0; i < 10; ++i) {
      rt.async([big, &ran] { ran.fetch_add(big.bytes[0]); });
    }
  });
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(rt.stats().heap_fallbacks, 10u);
}

}  // namespace
}  // namespace cuttlefish::runtime
