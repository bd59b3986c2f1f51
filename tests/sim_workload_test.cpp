#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/phase_workload.hpp"

namespace cuttlefish::sim {
namespace {

TEST(PhaseProgram, BuilderAccumulatesSegments) {
  PhaseProgram p;
  p.add(100.0, 1.0, 0.01).add(200.0, 2.0, 0.02);
  EXPECT_EQ(p.segments().size(), 2u);
  EXPECT_DOUBLE_EQ(p.total_instructions(), 300.0);
}

TEST(PhaseProgram, RepeatAppendsBlocks) {
  PhaseProgram p;
  std::vector<Segment> block{{10.0, OperatingPoint{1.0, 0.0}},
                             {20.0, OperatingPoint{1.0, 0.1}}};
  p.repeat(3, block);
  EXPECT_EQ(p.segments().size(), 6u);
  EXPECT_DOUBLE_EQ(p.total_instructions(), 90.0);
}

TEST(PhaseProgram, ScaleInstructions) {
  PhaseProgram p;
  p.add(100.0, 1.0, 0.01);
  p.scale_instructions(2.5);
  EXPECT_DOUBLE_EQ(p.total_instructions(), 250.0);
}

TEST(PhaseProgram, OpsKeepFirstSeenOrder) {
  PhaseProgram p;
  p.add(1.0, 1.0, 0.03).add(1.0, 1.0, 0.01).add(1.0, 1.0, 0.03).add(1.0, 2.0,
                                                                  0.01);
  ASSERT_EQ(p.ops().size(), 3u);
  EXPECT_EQ(p.ops()[0].tipi, 0.03);
  EXPECT_EQ(p.ops()[1].tipi, 0.01);
  EXPECT_EQ(p.ops()[2].cpi0, 2.0);
  const std::vector<uint32_t> expected{0, 1, 0, 2};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(p.segments()[i].op_index, expected[i]) << "segment " << i;
  }
}

TEST(PhaseProgram, OpsAreInternedByBitPattern) {
  // +0.0 == -0.0, but the two are different inputs to the models, so they
  // must stay two ops.
  PhaseProgram p;
  p.add(1.0, 1.0, 0.0).add(1.0, 1.0, -0.0).add(1.0, 1.0, 0.0);
  ASSERT_EQ(p.ops().size(), 2u);
  EXPECT_FALSE(std::signbit(p.ops()[0].tipi));
  EXPECT_TRUE(std::signbit(p.ops()[1].tipi));
  EXPECT_EQ(p.segments()[0].op_index, 0u);
  EXPECT_EQ(p.segments()[1].op_index, 1u);
  EXPECT_EQ(p.segments()[2].op_index, 0u);
}

TEST(PhaseProgram, LastSegmentOfFollowsAddRepeatAndScale) {
  PhaseProgram block;
  block.add(1.0, 1.0, 0.01).add(2.0, 1.0, 0.02);
  PhaseProgram p;
  p.add(5.0, 1.0, 0.01);  // segment 0, op 0
  EXPECT_EQ(p.last_segment_of(0), 0u);
  p.add(5.0, 1.0, 0.03);          // segment 1, op 1
  p.repeat(3, block.segments());  // segments 2-7: ops 0, 2, 0, 2, 0, 2
  EXPECT_EQ(p.last_segment_of(0), 6u);
  EXPECT_EQ(p.last_segment_of(1), 1u);
  EXPECT_EQ(p.last_segment_of(2), 7u);
  p.add(0.0, 1.0, 0.03);  // segment 8: an empty segment can be the last
  EXPECT_EQ(p.last_segment_of(1), 8u);
  p.scale_instructions(2.0);
  EXPECT_EQ(p.last_segment_of(0), 6u);
  EXPECT_EQ(p.last_segment_of(1), 8u);
  EXPECT_EQ(p.last_segment_of(2), 7u);
}

TEST(PhaseProgramDeathTest, RepeatChecksBlockSegmentsLikeAdd) {
  const auto block = [](double instructions, double cpi0, double tipi) {
    return std::vector<Segment>{{1.0, OperatingPoint{1.0, 0.01}},
                                {instructions, OperatingPoint{cpi0, tipi}}};
  };
  EXPECT_DEATH(PhaseProgram().repeat(2, block(1.0, 1.0, -0.01)),
               "negative TIPI");
  EXPECT_DEATH(PhaseProgram().repeat(2, block(1.0, 0.0, 0.01)),
               "CPI0 must be positive");
  EXPECT_DEATH(PhaseProgram().repeat(2, block(1.0, -1.0, 0.01)),
               "CPI0 must be positive");
  EXPECT_DEATH(PhaseProgram().repeat(2, block(-1.0, 1.0, 0.01)),
               "negative instruction count");
}

TEST(WorkloadCursor, SegmentIndexSkipsEmptySegments) {
  PhaseProgram p;
  p.add(0.0, 1.0, 0.01).add(5.0, 1.0, 0.02).add(0.0, 1.0, 0.03).add(5.0, 1.0,
                                                                   0.04);
  WorkloadCursor c(&p);
  EXPECT_EQ(c.segment_index(), 1u);
  c.consume(5.0);
  EXPECT_EQ(c.segment_index(), 3u);
  c.consume(5.0);
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.segment_index(), 4u);
}

TEST(WorkloadCursor, ConsumesAcrossSegments) {
  PhaseProgram p;
  p.add(10.0, 1.0, 0.01).add(5.0, 1.0, 0.02);
  WorkloadCursor c(&p);
  EXPECT_FALSE(c.done());
  EXPECT_DOUBLE_EQ(c.op().tipi, 0.01);
  c.consume(10.0);
  EXPECT_FALSE(c.done());
  EXPECT_DOUBLE_EQ(c.op().tipi, 0.02);
  c.consume(5.0);
  EXPECT_TRUE(c.done());
}

TEST(WorkloadCursor, SkipsEmptySegments) {
  PhaseProgram p;
  p.add(0.0, 1.0, 0.01).add(5.0, 1.0, 0.02).add(0.0, 1.0, 0.03);
  WorkloadCursor c(&p);
  EXPECT_DOUBLE_EQ(c.op().tipi, 0.02);
  c.consume(5.0);
  EXPECT_TRUE(c.done());
}

TEST(WorkloadCursor, EmptyProgramIsDone) {
  PhaseProgram p;
  WorkloadCursor c(&p);
  EXPECT_TRUE(c.done());
}

TEST(WorkloadCursorDeathTest, ExhaustedCursorRefusesReads) {
  PhaseProgram p;
  p.add(5.0, 1.0, 0.01);
  WorkloadCursor c(&p);
  c.consume(5.0);
  ASSERT_TRUE(c.done());
  EXPECT_DEATH(c.op(), "cursor exhausted");
  EXPECT_DEATH(c.op_index(), "cursor exhausted");
  EXPECT_DEATH(c.consume(1.0), "cursor exhausted");
  const PhaseProgram empty;
  WorkloadCursor none(&empty);
  EXPECT_DEATH(none.op(), "cursor exhausted");
}

TEST(WorkloadCursorDeathTest, ConsumeStopsAtTheSegmentBoundary) {
  PhaseProgram p;
  p.add(10.0, 1.0, 0.01).add(10.0, 1.0, 0.02);
  WorkloadCursor c(&p);
  c.consume(4.0);
  // Within the 1e-6 slack is still this segment's...
  c.consume(6.0 + 5e-7);
  EXPECT_EQ(c.segment_index(), 1u);
  // ...but a step past it would retire the next segment's instructions at
  // this one's operating point.
  EXPECT_DEATH(c.consume(10.0 + 1e-3), "consuming beyond segment boundary");
}

TEST(WorkloadCursor, PartialConsumption) {
  PhaseProgram p;
  p.add(10.0, 1.0, 0.01);
  WorkloadCursor c(&p);
  c.consume(4.0);
  EXPECT_DOUBLE_EQ(c.remaining_in_segment(), 6.0);
  EXPECT_FALSE(c.done());
}

}  // namespace
}  // namespace cuttlefish::sim
