#include "workloads/kernels/uts.hpp"

#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace cuttlefish::workloads {

namespace {

/// Number of children of the node identified by `id`.
int child_count(const UtsParams& p, uint64_t id, bool is_root) {
  if (is_root) return p.root_branching;
  // Derive a uniform double from the node id deterministically.
  SplitMix64 rng(id);
  return rng.next_double() < p.q ? p.m : 0;
}

uint64_t child_id(uint64_t parent, int index) {
  return mix64(parent, static_cast<uint64_t>(index) + 1);
}

uint64_t count_subtree(const UtsParams& p, uint64_t id, bool is_root) {
  uint64_t total = 1;
  const int kids = child_count(p, id, is_root);
  for (int c = 0; c < kids; ++c) {
    total += count_subtree(p, child_id(id, c), false);
  }
  return total;
}

}  // namespace

double uts_expected_size(const UtsParams& params) {
  const double qm = params.q * params.m;
  CF_ASSERT(qm < 1.0, "supercritical UTS tree (q*m >= 1)");
  return static_cast<double>(params.root_branching) / (1.0 - qm);
}

uint64_t uts_count_sequential(const UtsParams& params) {
  return count_subtree(params, params.root_seed, true);
}

uint64_t uts_count_parallel(runtime::TaskScheduler& rt,
                            const UtsParams& params) {
  // Node counts per worker, one cache line each: a task adds its nodes
  // into its own worker's slot, so no line is written by two workers.
  // Slots are plain integers; finish() orders every task's write before
  // the sum below.
  struct alignas(64) Slot {
    uint64_t nodes = 0;
  };
  std::vector<Slot> slots(static_cast<size_t>(rt.size()));

  // One async per node down to depth 6, then sequential subtree walks.
  // This mirrors how the irregular-task variants create dynamic
  // parallelism.
  struct Walker {
    runtime::TaskScheduler& rt;
    const UtsParams& p;
    Slot* slots;

    void walk(uint64_t id, int depth) const {
      uint64_t nodes = 1;
      const int kids = child_count(p, id, false);
      for (int c = 0; c < kids; ++c) {
        const uint64_t cid = child_id(id, c);
        if (depth < 6) {
          rt.async([this, cid, depth] { walk(cid, depth + 1); });
        } else {
          nodes += count_subtree(p, cid, false);
        }
      }
      slots[runtime::TaskScheduler::current_worker()].nodes += nodes;
    }

    // Root children [lo, hi): hands the upper halves out as tasks by
    // recursive halving, then walks child lo. Every root-level task
    // walks exactly one root child, and no deque receives them all.
    void walk_root_children(int lo, int hi) const {
      while (hi - lo > 1) {
        const int mid = lo + (hi - lo) / 2;
        rt.async([this, mid, hi] { walk_root_children(mid, hi); });
        hi = mid;
      }
      walk(child_id(p.root_seed, lo), 1);
    }
  };

  const Walker walker{rt, params, slots.data()};
  rt.finish([&walker, &params] {
    if (params.root_branching > 0) {
      walker.walk_root_children(0, params.root_branching);
    }
  });
  uint64_t total = 1;  // the root
  for (const Slot& s : slots) total += s.nodes;
  return total;
}

}  // namespace cuttlefish::workloads
