// TaskScheduler's finish contract: the finish caller is worker 0 for the
// scope's duration, finish() returns only once every task of the scope
// completed (counted per worker, with no shared counter), and misuse — an
// async outside a scope, a second concurrent scope — aborts.

#include "runtime/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/rng.hpp"

namespace cuttlefish::runtime {
namespace {

TEST(TaskScheduler, FinishCallerIsWorkerZero) {
  TaskScheduler rt(3);
  int in_root = -2;
  rt.finish([&] { in_root = TaskScheduler::current_worker(); });
  EXPECT_EQ(in_root, 0);
  EXPECT_EQ(TaskScheduler::current_worker(), -1);

  // Any external thread may open the next scope; it too is worker 0 only
  // while inside it.
  int other_root = -2, other_after = -2;
  std::thread other([&] {
    rt.finish([&] { other_root = TaskScheduler::current_worker(); });
    other_after = TaskScheduler::current_worker();
  });
  other.join();
  EXPECT_EQ(other_root, 0);
  EXPECT_EQ(other_after, -1);
}

// A random-shape spawn tree: node `id` at `depth` has 0-4 children drawn
// from a hash of its id, none past kMaxDepth; leaves count themselves.
struct RandomTree {
  static constexpr int kMaxDepth = 7;

  static int fanout(uint64_t id, int depth) {
    return depth >= kMaxDepth ? 0 : static_cast<int>(mix64(id, 0) % 5);
  }

  static void run(TaskScheduler& rt, std::atomic<uint64_t>& leaves,
                  uint64_t id, int depth) {
    const int kids = fanout(id, depth);
    if (kids == 0) {
      // Some leaves linger, and count themselves only at the end, so a
      // finish that returned while one still ran would see it missing.
      if (id % 7 == 0) {
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(20);
        while (std::chrono::steady_clock::now() < until) {
        }
      }
      leaves.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (int c = 0; c < kids; ++c) {
      const uint64_t child = mix64(id, static_cast<uint64_t>(c) + 1);
      rt.async([&rt, &leaves, child, depth] {
        run(rt, leaves, child, depth + 1);
      });
    }
  }

  static void count(uint64_t id, int depth, uint64_t* nodes,
                    uint64_t* leaves) {
    *nodes += 1;
    const int kids = fanout(id, depth);
    if (kids == 0) *leaves += 1;
    for (int c = 0; c < kids; ++c) {
      count(mix64(id, static_cast<uint64_t>(c) + 1), depth + 1, nodes,
            leaves);
    }
  }
};

TEST(TaskScheduler, FinishNeverReturnsEarly) {
  constexpr int kScopes = 1000;
  for (int workers = 1; workers <= 4; ++workers) {
    TaskScheduler rt(workers);
    std::atomic<uint64_t> leaves{0};
    for (int scope = 0; scope < kScopes; ++scope) {
      const uint64_t root = mix64(static_cast<uint64_t>(workers), scope);
      uint64_t want_nodes = 0, want_leaves = 0;
      RandomTree::count(root, 0, &want_nodes, &want_leaves);
      leaves.store(0, std::memory_order_relaxed);
      const uint64_t before = rt.stats().executed;
      rt.finish([&] { RandomTree::run(rt, leaves, root, 0); });
      // The root node runs as the finish root itself.
      ASSERT_EQ(leaves.load(std::memory_order_relaxed), want_leaves)
          << "scope " << scope << " at " << workers << " workers";
      ASSERT_EQ(rt.stats().executed - before, want_nodes)
          << "scope " << scope << " at " << workers << " workers";
    }
  }
}

TEST(TaskScheduler, ParkedFinisherIsWokenByTheLastCompletion) {
  // The scope's last task runs on the pool thread while the finisher
  // idles. Its length sweeps across the finisher's spin -> yield -> park
  // schedule and then far beyond it, so the completion lands before,
  // while and after the finisher parks; a lost wakeup hangs finish().
  TaskScheduler rt(2);
  for (int i = 0; i <= 200; ++i) {
    const auto length = i < 200 ? std::chrono::microseconds(i % 50 * 4)
                                : std::chrono::microseconds(100000);
    std::atomic<bool> started{false};
    std::atomic<bool> done{false};
    rt.finish([&] {
      rt.async([&] {
        started = true;
        const auto until = std::chrono::steady_clock::now() + length;
        while (std::chrono::steady_clock::now() < until) {
        }
        done = true;
      });
      // Hold the root until the pool thread has stolen the task.
      while (!started) std::this_thread::yield();
    });
    ASSERT_TRUE(done.load()) << "iteration " << i;
  }
}

TEST(TaskSchedulerDeathTest, AsyncOutsideFinishAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TaskScheduler rt(2);
  EXPECT_DEATH(rt.async([] {}), "async outside a finish scope");
}

TEST(TaskSchedulerDeathTest, SecondConcurrentFinishAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TaskScheduler rt(2);
        std::atomic<bool> inside{false};
        std::atomic<bool> release{false};
        std::thread first([&] {
          rt.finish([&] {
            inside = true;
            // Bounded, so a missing check fails the test instead of
            // hanging it.
            const auto give_up =
                std::chrono::steady_clock::now() + std::chrono::seconds(5);
            while (!release && std::chrono::steady_clock::now() < give_up) {
              std::this_thread::yield();
            }
          });
        });
        while (!inside) std::this_thread::yield();
        rt.finish([] {});
        release = true;
        first.join();
      },
      "one finish scope at a time");
}

}  // namespace
}  // namespace cuttlefish::runtime
