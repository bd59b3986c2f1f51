#pragma once

#include <cstdint>
#include <functional>

#include "runtime/scheduler.hpp"

namespace cuttlefish::runtime {

/// Execution-DAG shapes of the paper's task-parallel benchmark variants
/// (Fig. 1, after Chen et al. [8]): loop iteration ranges are split
/// recursively into a spawn tree whose leaves run `grain`-sized chunks.
///
/// kRegular:  every internal node splits into the same number of children
///            (degree 3) — the `rt` variants.
/// kIrregular: node degree alternates between 3 and 5 with depth/position
///            (grey and black nodes of Fig. 1) — the `irt` variants.
enum class DagShape { kRegular, kIrregular };

/// Run `leaf(lo, hi)` tasks over [begin, end) as a spawn tree of the
/// given DAG shape, under its own finish scope: like parallel_for, call
/// it from outside the pool; it returns once every leaf ran.
void run_range_tree(TaskScheduler& rt, int64_t begin, int64_t end,
                    int64_t grain, DagShape shape,
                    const std::function<void(int64_t, int64_t)>& leaf);

/// Number of tasks such a tree creates (test hook; leaves + internals).
int64_t range_tree_task_count(int64_t begin, int64_t end, int64_t grain,
                              DagShape shape);

}  // namespace cuttlefish::runtime
