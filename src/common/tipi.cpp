#include "common/tipi.hpp"

#include <cstdio>

#include "common/assert.hpp"

namespace cuttlefish {

TipiSlabber::TipiSlabber(double width) : width_(width) {
  CF_ASSERT(width > 0.0, "slab width must be positive");
}

double TipiSlabber::lower_bound(int64_t slab) const {
  return static_cast<double>(slab) * width_;
}

double TipiSlabber::upper_bound(int64_t slab) const {
  return static_cast<double>(slab + 1) * width_;
}

std::string TipiSlabber::range_label(int64_t slab) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f-%.3f", lower_bound(slab),
                upper_bound(slab));
  return buf;
}

}  // namespace cuttlefish
