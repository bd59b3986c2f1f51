#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "common/assert.hpp"

namespace cuttlefish {

/// TOR-Inserts-Per-Instruction slab arithmetic.
///
/// The paper quantises raw TIPI values into fixed slabs of width 0.004
/// (empirically derived, Section 3.2): values 0.004, 0.005 and 0.007 all
/// report under the range [0.004, 0.008). A slab is identified by its
/// integer index: slab k covers [k*width, (k+1)*width).
class TipiSlabber {
 public:
  static constexpr double kPaperSlabWidth = 0.004;

  explicit TipiSlabber(double width = kPaperSlabWidth);

  double width() const { return width_; }
  /// Inline: the controller slabs every tick's TIPI.
  int64_t slab_of(double tipi) const {
    CF_ASSERT(tipi >= 0.0, "TIPI is a ratio of non-negative counters");
    return static_cast<int64_t>(std::floor(tipi / width_));
  }
  double lower_bound(int64_t slab) const;
  double upper_bound(int64_t slab) const;
  /// Human-readable "0.064-0.068" formatting used in the paper's tables.
  std::string range_label(int64_t slab) const;

 private:
  double width_;
};

}  // namespace cuttlefish
