#include "runtime/dag.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace cuttlefish::runtime {
namespace {

void run_tree(TaskScheduler& rt, int64_t n, int64_t grain, DagShape shape,
              std::vector<std::atomic<int>>& hits) {
  run_range_tree(rt, 0, n, grain, shape, [&hits](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)] += 1;
  });
}

TEST(RangeTree, RegularShapeCoversRangeExactlyOnce) {
  TaskScheduler rt(4);
  std::vector<std::atomic<int>> hits(2000);
  run_tree(rt, 2000, 16, DagShape::kRegular, hits);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RangeTree, IrregularShapeCoversRangeExactlyOnce) {
  TaskScheduler rt(4);
  std::vector<std::atomic<int>> hits(2000);
  run_tree(rt, 2000, 16, DagShape::kIrregular, hits);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RangeTree, SmallRangeRunsAsSingleLeaf) {
  TaskScheduler rt(2);
  std::vector<std::atomic<int>> hits(8);
  run_tree(rt, 8, 16, DagShape::kRegular, hits);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RangeTree, TaskCountMatchesPredictedShape) {
  // The irregular DAG creates a different task count than the regular one
  // on the same range (Fig. 1: degrees 3 vs mixed 3/5).
  const int64_t regular = range_tree_task_count(0, 10000, 16,
                                                DagShape::kRegular);
  const int64_t irregular = range_tree_task_count(0, 10000, 16,
                                                  DagShape::kIrregular);
  EXPECT_GT(regular, 0);
  EXPECT_GT(irregular, 0);
  EXPECT_NE(regular, irregular);
}

TEST(RangeTree, RegularDegreeIsUniform) {
  // 3^k leaves for a power-of-three range with grain 1.
  const int64_t tasks = range_tree_task_count(0, 27, 1, DagShape::kRegular);
  // 27 leaves + 9 + 3 + 1 internals = 40.
  EXPECT_EQ(tasks, 40);
}

TEST(RangeTree, EmptyRangeSpawnsNothing) {
  EXPECT_EQ(range_tree_task_count(5, 5, 4, DagShape::kRegular), 0);
  TaskScheduler rt(2);
  std::atomic<int> leaves{0};
  run_range_tree(rt, 5, 5, 4, DagShape::kRegular,
                 [&](int64_t, int64_t) { leaves += 1; });
  EXPECT_EQ(leaves.load(), 0);
}

}  // namespace
}  // namespace cuttlefish::runtime
