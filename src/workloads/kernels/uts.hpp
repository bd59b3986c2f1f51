#pragma once

#include <cstdint>

#include "runtime/scheduler.hpp"

namespace cuttlefish::workloads {

/// Unbalanced Tree Search (Olivier et al.), binomial variant: every
/// non-root node has `m` children with probability `q` and none otherwise;
/// the root always has `root_branching` children. Child identity derives
/// from a splittable hash of (parent id, child index) — a stand-in for the
/// SHA-1 splitting of the reference implementation with the same
/// statistical structure (deterministic, unbalanced, unpredictable).
struct UtsParams {
  uint64_t root_seed = 42;
  int root_branching = 400;
  double q = 0.1125;  // q * m < 1 keeps the tree finite (expected size
  int m = 8;          // root_branching / (1 - q*m)); q*m = 0.9 keeps the
                      // realised size within tens of percent of that
};

/// Expected tree size (excluding the root) for sanity checks.
double uts_expected_size(const UtsParams& params);

/// Sequential traversal; returns the number of nodes (including root).
uint64_t uts_count_sequential(const UtsParams& params);

/// Async-finish traversal on the work-stealing runtime, the paper's
/// "inbuilt work-stealing" style of UTS, with lazy task creation: down to
/// depth 6 a child becomes a stealable task only while the calling
/// worker's deque is empty, and is walked inline otherwise. Root children
/// are split like a lazy binary-splitting loop (parallel_for.hpp): the
/// upper half of the remaining range is shed only while the deque is
/// empty. Each task adds the nodes it walked to its worker's slot once,
/// so the count is an exact integer sum under any schedule.
uint64_t uts_count_parallel(runtime::TaskScheduler& rt,
                            const UtsParams& params);

}  // namespace cuttlefish::workloads
