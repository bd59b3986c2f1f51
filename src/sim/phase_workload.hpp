#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "sim/perf_model.hpp"

namespace cuttlefish::sim {

/// One homogeneous stretch of execution: `instructions` retired at a fixed
/// operating point (CPI0, TIPI). Benchmarks are modelled as sequences of
/// segments; Cuttlefish observes the TIPI of whichever segment is running.
struct Segment {
  double instructions = 0.0;
  OperatingPoint op;
  /// Index of `op` in PhaseProgram::ops(), assigned by the builder —
  /// segments with bit-identical operating points share one index, which
  /// is what keys SimMachine's per-(op, CF, UF) rate cache. Free-standing
  /// Segments (repeat() blocks under construction) leave it at 0; the
  /// program re-interns it on insertion.
  uint32_t op_index = 0;
};

/// An immutable program of segments plus a builder API. Workload models in
/// src/workloads construct these to mirror the phase structure of the ten
/// paper benchmarks (Table 1).
class PhaseProgram {
 public:
  PhaseProgram() = default;

  PhaseProgram& add(double instructions, double cpi0, double tipi);
  /// Appends `count` copies of the segment block built by `body` — used
  /// for iterative solvers (CG, AMG V-cycles, time-stepped stencils).
  /// Block segments must pass add()'s checks.
  PhaseProgram& repeat(int count, const std::vector<Segment>& block);

  /// Multiply every segment's instruction count by `factor` (used to
  /// calibrate total Default-execution time against Table 1).
  void scale_instructions(double factor);

  const std::vector<Segment>& segments() const { return segments_; }
  /// Distinct operating points of the program in first-seen order,
  /// deduplicated at build time by bitwise (CPI0, TIPI) equality.
  /// Iterative solvers built with repeat() collapse to one entry per block
  /// segment; every segment's op_index points here.
  const std::vector<OperatingPoint>& ops() const { return ops_; }
  /// Index of the last segment that runs ops()[op_index]. A cursor past
  /// it never needs that op's rates again.
  size_t last_segment_of(uint32_t op_index) const {
    return last_segment_[op_index];
  }
  double total_instructions() const;
  bool empty() const { return segments_.empty(); }

 private:
  /// Bit patterns of an operating point: the interning key.
  struct OpBits {
    uint64_t cpi0 = 0;
    uint64_t tipi = 0;
    bool operator==(const OpBits&) const = default;
  };
  struct OpBitsHash {
    size_t operator()(const OpBits& bits) const;
  };

  /// Index of `op` in ops_, appending if unseen (first-seen order).
  /// Keyed by bit pattern, not operator==, so e.g. -0.0 and +0.0 TIPIs
  /// never alias — two segments share an index only when the models'
  /// inputs are identical bits, which is what keeps cached rates
  /// byte-identical to direct evaluation.
  uint32_t intern_op(const OperatingPoint& op);

  std::vector<Segment> segments_;
  std::vector<OperatingPoint> ops_;
  std::vector<size_t> last_segment_;  // per op, see last_segment_of()
  std::unordered_map<OpBits, uint32_t, OpBitsHash> op_index_;
};

/// Consumption state over a PhaseProgram; owned by SimMachine. Every
/// quantum of a co-simulation reads it several times, so the accessors
/// and the in-segment path of consume() are inline; crossing into the
/// next segment is the one out-of-line call.
class WorkloadCursor {
 public:
  WorkloadCursor() = default;
  explicit WorkloadCursor(const PhaseProgram* program);

  bool done() const {
    return program_ == nullptr || index_ >= program_->segments().size();
  }
  /// Operating point of the segment currently executing.
  const OperatingPoint& op() const {
    CF_ASSERT(!done(), "cursor exhausted");
    return program_->segments()[index_].op;
  }
  /// Dedup index (PhaseProgram::ops()) of the current segment's operating
  /// point — the rate-cache key of the co-simulation hot path.
  uint32_t op_index() const {
    CF_ASSERT(!done(), "cursor exhausted");
    return program_->segments()[index_].op_index;
  }
  const PhaseProgram* program() const { return program_; }
  /// Index of the current segment in program()->segments().
  size_t segment_index() const { return index_; }
  /// Instructions left in the current segment.
  double remaining_in_segment() const { return remaining_; }
  /// Consume `instructions` from the current segment (must not exceed
  /// remaining_in_segment); advances to the next segment when drained.
  void consume(double instructions) {
    CF_ASSERT(!done(), "cursor exhausted");
    CF_ASSERT(instructions <= remaining_ + 1e-6,
              "consuming beyond segment boundary");
    remaining_ -= instructions;
    if (remaining_ <= 1e-6) {
      remaining_ = 0.0;
      skip_empty();
    }
  }

 private:
  const PhaseProgram* program_ = nullptr;
  size_t index_ = 0;
  double remaining_ = 0.0;
  /// Moves past a drained segment and any empty ones.
  void skip_empty();
};

}  // namespace cuttlefish::sim
