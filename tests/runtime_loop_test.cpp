#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"

namespace cuttlefish::runtime {
namespace {

using Block = std::pair<int64_t, int64_t>;
using BlockBody = std::function<void(int64_t, int64_t)>;
using BlockedLoop = void (*)(TaskScheduler&, int64_t, int64_t,
                             const BlockBody&);

void lbs_loop(TaskScheduler& rt, int64_t begin, int64_t end,
              const BlockBody& body) {
  parallel_for_blocked(rt, begin, end, body);
}

/// Every block `loop` hands to its body, sorted by start.
std::vector<Block> blocks_of(BlockedLoop loop, TaskScheduler& rt,
                             int64_t begin, int64_t end) {
  std::mutex m;
  std::vector<Block> blocks;
  loop(rt, begin, end, [&](int64_t lo, int64_t hi) {
    std::lock_guard<std::mutex> lock(m);
    blocks.emplace_back(lo, hi);
  });
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

// The cases below run against both ways of splitting a loop on the one
// runtime: the static partition and lazy binary splitting.
struct LoopCase {
  const char* name;
  BlockedLoop loop;
};

class Loop : public ::testing::TestWithParam<LoopCase> {};

TEST_P(Loop, CoversEveryIndexExactlyOnce) {
  TaskScheduler rt(4);
  std::vector<std::atomic<int>> hits(1000);
  GetParam().loop(rt, 0, 1000, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)] += 1;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(Loop, EmptyAndInvertedRangesAreNoops) {
  TaskScheduler rt(2);
  std::atomic<int> calls{0};
  GetParam().loop(rt, 5, 5, [&](int64_t, int64_t) { calls += 1; });
  GetParam().loop(rt, 7, 3, [&](int64_t, int64_t) { calls += 1; });
  EXPECT_EQ(calls.load(), 0);
}

TEST_P(Loop, RangeSmallerThanWorkerCount) {
  TaskScheduler rt(8);
  std::vector<std::atomic<int>> hits(3);
  GetParam().loop(rt, 0, 3, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)] += 1;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(Loop, BlocksPartitionTheRange) {
  TaskScheduler rt(4);
  const std::vector<Block> blocks = blocks_of(GetParam().loop, rt, 10, 110);
  ASSERT_FALSE(blocks.empty());
  int64_t next = 10;
  for (const auto& [lo, hi] : blocks) {
    EXPECT_EQ(lo, next);
    EXPECT_LT(lo, hi);
    next = hi;
  }
  EXPECT_EQ(next, 110);
}

TEST_P(Loop, FiftyLoopsBackToBack) {
  TaskScheduler rt(3);
  std::atomic<int64_t> total{0};
  for (int loop = 0; loop < 50; ++loop) {
    GetParam().loop(rt, 0, 30, [&](int64_t lo, int64_t hi) { total += hi - lo; });
  }
  EXPECT_EQ(total.load(), 50 * 30);
}

INSTANTIATE_TEST_SUITE_P(
    BothSplits, Loop,
    ::testing::Values(LoopCase{"Static", &parallel_for_static},
                      LoopCase{"Lbs", &lbs_loop}),
    [](const ::testing::TestParamInfo<LoopCase>& info) {
      return std::string(info.param.name);
    });

TEST(ParallelForStatic, ChunkBoundariesArePinned) {
  TaskScheduler rt(4);
  // n = 11, P = 4: n/P = 2 and n%P = 3, so the first three chunks take 3.
  EXPECT_EQ(blocks_of(&parallel_for_static, rt, 10, 21),
            (std::vector<Block>{{10, 13}, {13, 16}, {16, 19}, {19, 21}}));
  // n = 3 < P: one index per chunk; the fourth chunk is empty and not run.
  EXPECT_EQ(blocks_of(&parallel_for_static, rt, 0, 3),
            (std::vector<Block>{{0, 1}, {1, 2}, {2, 3}}));
}

TEST(ParallelReduce, MatchesSequentialSum) {
  TaskScheduler rt(4);
  const double got = parallel_reduce(
      rt, 1, 10001, [](int64_t i) { return static_cast<double>(i); });
  EXPECT_DOUBLE_EQ(got, 10000.0 * 10001.0 / 2.0);
}

TEST(ParallelReduce, DeterministicAtFixedWorkerCount) {
  const int64_t n = int64_t{1} << 20;
  const auto term = [](int64_t i) { return 1.0 / static_cast<double>(i + 3); };
  for (const int workers : {2, 4}) {
    // The documented partition, each chunk summed in order, the partials
    // added in chunk order.
    double expected = 0.0;
    for (int64_t t = 0; t < workers; ++t) {
      const int64_t lo =
          t * (n / workers) + std::min<int64_t>(t, n % workers);
      const int64_t hi = lo + n / workers + (t < n % workers ? 1 : 0);
      double acc = 0.0;
      for (int64_t i = lo; i < hi; ++i) acc += term(i);
      expected += acc;
    }
    TaskScheduler rt(workers);
    std::set<uint64_t> patterns;
    for (int call = 0; call < 200; ++call) {
      patterns.insert(std::bit_cast<uint64_t>(parallel_reduce(rt, 0, n, term)));
    }
    ASSERT_EQ(patterns.size(), 1u) << workers << " workers";
    EXPECT_EQ(*patterns.begin(), std::bit_cast<uint64_t>(expected))
        << workers << " workers";
  }
}

}  // namespace
}  // namespace cuttlefish::runtime
