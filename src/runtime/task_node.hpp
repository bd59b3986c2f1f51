#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace cuttlefish::runtime {

class TaskSlab;

/// Inline (small-buffer) callable capacity of a TaskNode. Chosen so the
/// whole node is exactly one cache line: 16 bytes of header (dispatch
/// function + intrusive link) + 48 bytes of storage. Capturing lambdas up
/// to six words — every spawn site in the runtime, kernels and tests —
/// run with zero per-task heap traffic; larger callables fall back to one
/// heap allocation (counted in SlabStats::heap_fallbacks so tests can
/// assert the hot path never takes it).
inline constexpr size_t kTaskInlineBytes = 48;

/// One spawned task. Lives in a 64-byte slot carved out of a TaskSlab
/// block; the intrusive `next` link threads it through whichever list
/// currently owns it (slab free list or remote-return stack) without any
/// side allocation.
struct alignas(64) TaskNode {
  /// Dispatch: run(node, true) invokes then destroys the bound callable;
  /// run(node, false) destroys it without invoking (shutdown drain).
  void (*run)(TaskNode*, bool) = nullptr;
  TaskNode* next = nullptr;
  alignas(16) unsigned char storage[kTaskInlineBytes];

  template <typename F>
  void bind(F&& f, std::atomic<uint64_t>* heap_fallbacks) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kTaskInlineBytes && alignof(Fn) <= 16) {
      ::new (static_cast<void*>(storage)) Fn(std::forward<F>(f));
      run = [](TaskNode* n, bool execute) {
        Fn* fn = std::launder(reinterpret_cast<Fn*>(n->storage));
        if (execute) (*fn)();
        fn->~Fn();
      };
    } else {
      // Oversized callable: the only allocating spawn path, kept for
      // correctness. Never taken by the runtime's own spawns.
      Fn* heap = new Fn(std::forward<F>(f));
      ::new (static_cast<void*>(storage)) Fn*(heap);
      run = [](TaskNode* n, bool execute) {
        Fn* fn = *std::launder(reinterpret_cast<Fn**>(n->storage));
        if (execute) (*fn)();
        delete fn;
      };
      if (heap_fallbacks != nullptr) {
        heap_fallbacks->fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  void execute() { run(this, true); }
  void destroy() { run(this, false); }
};

static_assert(sizeof(TaskNode) == 64, "TaskNode must be cache-line sized");

/// Per-worker slab allocator for TaskNodes.
///
/// Blocks of 64 KiB (1023 nodes + a header slot) are carved into nodes and
/// threaded onto an owner-local free list. The owner allocates and frees
/// with plain pointer ops — no atomics, no locks. A node freed by a
/// *different* worker (the common case under stealing: spawner A, executor
/// B) is pushed onto the owning slab's lock-free remote-return stack; the
/// owner reclaims the whole chain with a single exchange when its local
/// list runs dry, so cross-worker returns are batched rather than paid
/// per-node. Steady state performs zero heap allocations: nodes recycle
/// forever, and blocks are only allocated while the live-task high-water
/// mark is still growing.
///
/// Ownership lookup is address arithmetic: blocks are allocated aligned to
/// their own size, so the block header (holding the owning slab pointer)
/// is found by masking the node address. Nodes need no owner field, which
/// is what keeps them at exactly 64 bytes.
class TaskSlab {
 public:
  static constexpr size_t kBlockBytes = size_t{1} << 16;  // 64 KiB
  static constexpr size_t kNodesPerBlock = kBlockBytes / sizeof(TaskNode) - 1;

  TaskSlab() = default;
  ~TaskSlab() {
    for (void* block : blocks_) {
      ::operator delete(block, std::align_val_t(kBlockBytes));
    }
  }

  TaskSlab(const TaskSlab&) = delete;
  TaskSlab& operator=(const TaskSlab&) = delete;

  /// Owner only (slot 0's owner is whichever thread is inside finish()).
  TaskNode* allocate() {
    if (local_free_ == nullptr) {
      // Batch-reclaim every node remote workers have returned since the
      // last reclaim: one atomic exchange amortised over the whole chain.
      local_free_ = remote_free_.exchange(nullptr, std::memory_order_acquire);
      if (local_free_ == nullptr) refill();
    }
    TaskNode* n = local_free_;
    local_free_ = n->next;
    return n;
  }

  /// Any thread. `caller` is the slab owned by the calling worker;
  /// owner-local frees skip atomics.
  static void release(TaskNode* node, TaskSlab* caller) {
    TaskSlab* owner = owner_of(node);
    if (owner == caller) {
      node->next = owner->local_free_;
      owner->local_free_ = node;
      return;
    }
    // Cross-worker return: Treiber push onto the owner's remote stack.
    // Push-only CAS is ABA-safe; the owner detaches the whole chain with
    // exchange(nullptr), never popping individual nodes.
    TaskNode* head = owner->remote_free_.load(std::memory_order_relaxed);
    do {
      node->next = head;
    } while (!owner->remote_free_.compare_exchange_weak(
        head, node, std::memory_order_release, std::memory_order_relaxed));
  }

  /// Ensure this slab's total capacity (nodes ever carved) is at least
  /// `nodes`. Idempotent: repeated calls with the same bound add nothing
  /// once the capacity high-water is reached — nodes recycle forever, so
  /// capacity >= N means N live tasks never trigger growth. Callable from
  /// any thread: new nodes are published through the remote-return stack,
  /// which the owner reclaims exactly like ordinary cross-worker frees.
  /// Lets measurement regions (and the churn test) start with the
  /// zero-allocation guarantee at task one instead of after an organic
  /// warm-up.
  void reserve(size_t nodes) {
    const uint64_t target_blocks =
        (nodes + kNodesPerBlock - 1) / kNodesPerBlock;
    while (block_count_.load(std::memory_order_relaxed) < target_blocks) {
      TaskNode* chain = new_block();
      TaskNode* tail = chain + (kNodesPerBlock - 1);
      TaskNode* head = remote_free_.load(std::memory_order_relaxed);
      do {
        tail->next = head;
      } while (!remote_free_.compare_exchange_weak(
          head, chain, std::memory_order_release,
          std::memory_order_relaxed));
    }
  }

  /// Blocks ever allocated (monotone; flat once the scheduler reaches its
  /// live-task high-water mark — the churn test's zero-allocation check).
  uint64_t blocks_allocated() const {
    return block_count_.load(std::memory_order_relaxed);
  }

  static TaskSlab* owner_of(TaskNode* node) {
    auto base = reinterpret_cast<uintptr_t>(node) & ~(kBlockBytes - 1);
    return reinterpret_cast<const BlockHeader*>(base)->owner;
  }

 private:
  struct BlockHeader {
    TaskSlab* owner;
  };
  static_assert(sizeof(BlockHeader) <= sizeof(TaskNode),
                "header must fit the reserved first slot");

  void refill() { local_free_ = new_block(); }

  /// Allocate, register and thread one block; returns its free chain.
  /// The mutex only guards the blocks_ registry — growth is off the hot
  /// path by construction, and reserve() may race with the owner here.
  TaskNode* new_block() {
    void* raw = ::operator new(kBlockBytes, std::align_val_t(kBlockBytes));
    {
      std::lock_guard<std::mutex> lock(grow_mutex_);
      blocks_.push_back(raw);
    }
    block_count_.fetch_add(1, std::memory_order_relaxed);
    auto* header = static_cast<BlockHeader*>(raw);
    header->owner = this;
    auto* nodes = reinterpret_cast<TaskNode*>(static_cast<char*>(raw) +
                                              sizeof(TaskNode));
    for (size_t i = 0; i < kNodesPerBlock; ++i) {
      nodes[i].next = (i + 1 < kNodesPerBlock) ? &nodes[i + 1] : nullptr;
    }
    return nodes;
  }

  TaskNode* local_free_ = nullptr;
  std::atomic<TaskNode*> remote_free_{nullptr};
  std::mutex grow_mutex_;
  std::atomic<uint64_t> block_count_{0};
  std::vector<void*> blocks_;
};

}  // namespace cuttlefish::runtime
