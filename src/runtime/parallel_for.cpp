#include "runtime/parallel_for.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"

namespace cuttlefish::runtime {

// ---- static partition ------------------------------------------------------

namespace {

// Runs body(t, lo, hi) for each non-empty chunk t of the static partition
// documented in parallel_for.hpp, one task per chunk under one finish.
// The spawned lambda captures {&body, t, lo, hi}: 32 bytes, inside
// TaskNode's 48-byte inline storage.
template <typename Body>
void run_static_chunks(TaskScheduler& rt, int64_t begin, int64_t end,
                       const Body& body) {
  CF_ASSERT(TaskScheduler::current_worker() == -1,
            "static-partition loop must be called from outside the pool");
  const int64_t n = end - begin;
  const int64_t chunks = rt.size();
  const int64_t per = n / chunks;
  const int64_t extra = n % chunks;
  rt.finish([&] {
    for (int64_t t = 0; t < chunks; ++t) {
      const int64_t lo = begin + t * per + std::min(t, extra);
      const int64_t hi = lo + per + (t < extra ? 1 : 0);
      if (lo < hi) rt.async([&body, t, lo, hi] { body(t, lo, hi); });
    }
  });
}

}  // namespace

void parallel_for_static(TaskScheduler& rt, int64_t begin, int64_t end,
                         const std::function<void(int64_t, int64_t)>& body) {
  if (begin >= end) return;
  run_static_chunks(rt, begin, end,
                    [&body](int64_t, int64_t lo, int64_t hi) { body(lo, hi); });
}

double parallel_reduce(TaskScheduler& rt, int64_t begin, int64_t end,
                       const std::function<double(int64_t)>& term) {
  if (begin >= end) return 0.0;
  std::vector<double> partial(static_cast<size_t>(rt.size()), 0.0);
  run_static_chunks(rt, begin, end, [&](int64_t t, int64_t lo, int64_t hi) {
    double acc = 0.0;
    for (int64_t i = lo; i < hi; ++i) acc += term(i);
    partial[static_cast<size_t>(t)] = acc;
  });
  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}

// ---- lazy binary splitting -------------------------------------------------

namespace {

// Shared by every task of one loop; lives on the calling thread's stack,
// which outlives all tasks because the caller stays in finish() until
// every task completed.
struct LoopCtx {
  TaskScheduler* rt;
  const std::function<void(int64_t, int64_t)>* body;
  int64_t grain;
};

// The lambda spawned per split captures {ctx, mid, hi}: 24 bytes, well
// inside TaskNode's 48-byte inline storage — loop spawning is
// allocation-free like every other hot path.
void lbs_span(const LoopCtx* ctx, int64_t lo, int64_t hi) {
  while (lo < hi) {
    if (hi - lo <= ctx->grain) {
      (*ctx->body)(lo, hi);
      return;
    }
    if (ctx->rt->want_more_work()) {
      // Thieves would find our deque empty: shed the upper half.
      const int64_t mid = lo + (hi - lo) / 2;
      ctx->rt->async([ctx, mid, hi] { lbs_span(ctx, mid, hi); });
      hi = mid;
    } else {
      // Plenty queued already: just chew one grain and re-evaluate.
      (*ctx->body)(lo, std::min(lo + ctx->grain, hi));
      lo += ctx->grain;
    }
  }
}

}  // namespace

void parallel_for_blocked(TaskScheduler& rt, int64_t begin, int64_t end,
                          const std::function<void(int64_t, int64_t)>& body,
                          int64_t grain) {
  if (begin >= end) return;
  CF_ASSERT(TaskScheduler::current_worker() == -1,
            "task-runtime parallel_for must be called from outside the pool");
  const int64_t n = end - begin;
  const int64_t g =
      grain > 0 ? grain
                : std::max<int64_t>(1, n / (16 * static_cast<int64_t>(
                                                    rt.size())));
  LoopCtx ctx{&rt, &body, g};
  rt.finish([&ctx, begin, end] { lbs_span(&ctx, begin, end); });
}

void parallel_for(TaskScheduler& rt, int64_t begin, int64_t end,
                  const std::function<void(int64_t)>& body, int64_t grain) {
  parallel_for_blocked(
      rt, begin, end,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) body(i);
      },
      grain);
}

}  // namespace cuttlefish::runtime
