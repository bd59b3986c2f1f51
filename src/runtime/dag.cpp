#include "runtime/dag.hpp"

#include "common/assert.hpp"

namespace cuttlefish::runtime {

namespace {

int node_degree(DagShape shape, int depth, int64_t lo) {
  if (shape == DagShape::kRegular) return 3;
  // Irregular: degree depends on depth and position so sibling subtrees
  // carry different amounts of work (Fig. 1's grey/black 3-vs-5 nodes).
  return ((static_cast<uint64_t>(lo) >> static_cast<uint64_t>(depth)) ^
          static_cast<uint64_t>(depth)) %
                 2 ==
                 0
             ? 3
             : 5;
}

// Shared by every task of one tree; lives on the calling thread's stack,
// which outlives all tasks because the caller stays in finish() until
// every task completed. Tasks capture {ctx, lo, hi, depth}: no per-task
// reference count on a shared line.
struct TreeContext {
  TaskScheduler* rt;
  int64_t grain;
  DagShape shape;
  const std::function<void(int64_t, int64_t)>* leaf;
};

void spawn_node(const TreeContext* ctx, int64_t lo, int64_t hi, int depth) {
  if (hi - lo <= ctx->grain) {
    (*ctx->leaf)(lo, hi);
    return;
  }
  const int degree = node_degree(ctx->shape, depth, lo);
  const int64_t n = hi - lo;
  const int64_t per = n / degree;
  for (int c = 0; c < degree; ++c) {
    const int64_t clo = lo + c * per;
    const int64_t chi = c == degree - 1 ? hi : clo + per;
    if (clo >= chi) continue;
    ctx->rt->async([ctx, clo, chi, depth] {
      spawn_node(ctx, clo, chi, depth + 1);
    });
  }
}

int64_t count_node(int64_t lo, int64_t hi, int64_t grain, DagShape shape,
                   int depth) {
  if (hi - lo <= grain) return 1;
  const int degree = node_degree(shape, depth, lo);
  const int64_t n = hi - lo;
  const int64_t per = n / degree;
  int64_t total = 1;
  for (int c = 0; c < degree; ++c) {
    const int64_t clo = lo + c * per;
    const int64_t chi = c == degree - 1 ? hi : clo + per;
    if (clo >= chi) continue;
    total += count_node(clo, chi, grain, shape, depth + 1);
  }
  return total;
}

}  // namespace

void run_range_tree(TaskScheduler& rt, int64_t begin, int64_t end,
                    int64_t grain, DagShape shape,
                    const std::function<void(int64_t, int64_t)>& leaf) {
  CF_ASSERT(grain > 0, "grain must be positive");
  if (begin >= end) return;
  const TreeContext ctx{&rt, grain, shape, &leaf};
  rt.finish([&ctx, begin, end] { spawn_node(&ctx, begin, end, 0); });
}

int64_t range_tree_task_count(int64_t begin, int64_t end, int64_t grain,
                              DagShape shape) {
  CF_ASSERT(grain > 0, "grain must be positive");
  if (begin >= end) return 0;
  return count_node(begin, end, grain, shape, 0);
}

}  // namespace cuttlefish::runtime
