#pragma once

#include <cstdint>
#include <functional>

#include "runtime/scheduler.hpp"

namespace cuttlefish::runtime {

// Loops on the async-finish TaskScheduler, so DAG workloads and loop
// workloads share one runtime (and one set of Cuttlefish-visible worker
// threads). There are two ways to split a loop:
//
//  * Static partition (parallel_for_static, parallel_reduce): the
//    work-sharing (`ws`) decomposition of the paper's benchmarks, like
//    OpenMP's schedule(static). The range is cut into rt.size()
//    contiguous chunks, one task each under one finish; with
//    n = end - begin and P = rt.size(), chunk t starts at
//    begin + t*(n/P) + min(t, n%P) and the first n%P chunks get one extra
//    index. Empty chunks (n < P) are not run.
//
//  * Lazy binary splitting (parallel_for, parallel_for_blocked; Tzannes
//    et al., PPoPP'10): a worker executing a range splits off its upper
//    half as a stealable task only while its own deque is empty — i.e.
//    only when thieves are actually starving — and otherwise consumes
//    the range grain by grain. Balanced loops therefore spawn O(workers)
//    tasks instead of O(n/grain), while skewed loops still shed
//    parallelism on demand. `grain` 0 picks n / (16 * workers), clamped
//    to at least 1.
//
// Every loop must be called from outside the pool (each call opens its
// own finish scope).

/// Static-partition loop: body receives each non-empty chunk's
/// [chunk_begin, chunk_end), which lets stencil kernels keep their inner
/// loops tight.
void parallel_for_static(TaskScheduler& rt, int64_t begin, int64_t end,
                         const std::function<void(int64_t, int64_t)>& body);

/// Parallel sum of term(i) over [begin, end) on the static partition:
/// each chunk sums its indices in order into its own partial, and the
/// partials are added in chunk order. The result therefore has the same
/// bits on every run at a fixed worker count.
double parallel_reduce(TaskScheduler& rt, int64_t begin, int64_t end,
                       const std::function<double(int64_t)>& term);

void parallel_for_blocked(TaskScheduler& rt, int64_t begin, int64_t end,
                          const std::function<void(int64_t, int64_t)>& body,
                          int64_t grain = 0);

void parallel_for(TaskScheduler& rt, int64_t begin, int64_t end,
                  const std::function<void(int64_t)>& body,
                  int64_t grain = 0);

}  // namespace cuttlefish::runtime
