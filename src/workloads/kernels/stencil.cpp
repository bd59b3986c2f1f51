#include "workloads/kernels/stencil.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace cuttlefish::workloads {

Grid2D::Grid2D(int64_t rows, int64_t cols, double init)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows * cols), init) {
  CF_ASSERT(rows >= 3 && cols >= 3, "grid needs an interior");
}

void Grid2D::set_boundary(double value) {
  for (int64_t c = 0; c < cols_; ++c) {
    at(0, c) = value;
    at(rows_ - 1, c) = value;
  }
  for (int64_t r = 0; r < rows_; ++r) {
    at(r, 0) = value;
    at(r, cols_ - 1) = value;
  }
}

double Grid2D::checksum() const {
  double acc = 0.0;
  for (double v : data_) acc += v;
  return acc;
}

double Grid2D::max_abs_diff(const Grid2D& other) const {
  CF_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
            "grid shape mismatch");
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  }
  return m;
}

namespace {

void heat_rows(const Grid2D& in, Grid2D& out, int64_t r0, int64_t r1) {
  const int64_t cols = in.cols();
  for (int64_t r = r0; r < r1; ++r) {
    for (int64_t c = 1; c < cols - 1; ++c) {
      out.at(r, c) = 0.25 * (in.at(r - 1, c) + in.at(r + 1, c) +
                             in.at(r, c - 1) + in.at(r, c + 1));
    }
  }
}

/// One colour of a red-black SOR sweep over rows [r0, r1).
void sor_rows(Grid2D& g, double omega, int colour, int64_t r0, int64_t r1) {
  const int64_t cols = g.cols();
  for (int64_t r = r0; r < r1; ++r) {
    const int64_t c_start = 1 + ((r + colour) & 1);
    for (int64_t c = c_start; c < cols - 1; c += 2) {
      const double gauss = 0.25 * (g.at(r - 1, c) + g.at(r + 1, c) +
                                   g.at(r, c - 1) + g.at(r, c + 1));
      g.at(r, c) += omega * (gauss - g.at(r, c));
    }
  }
}

}  // namespace

void heat_step_seq(const Grid2D& in, Grid2D& out) {
  heat_rows(in, out, 1, in.rows() - 1);
}

void heat_step_ws(runtime::TaskScheduler& rt, const Grid2D& in, Grid2D& out) {
  runtime::parallel_for_static(
      rt, 1, in.rows() - 1,
      [&](int64_t r0, int64_t r1) { heat_rows(in, out, r0, r1); });
}

void heat_step_tasks(runtime::TaskScheduler& rt, const Grid2D& in,
                     Grid2D& out, runtime::DagShape shape, int64_t grain) {
  runtime::run_range_tree(
      rt, 1, in.rows() - 1, grain, shape,
      [&in, &out](int64_t r0, int64_t r1) { heat_rows(in, out, r0, r1); });
}

void heat_step_lbs(runtime::TaskScheduler& rt, const Grid2D& in, Grid2D& out,
                   int64_t grain) {
  runtime::parallel_for_blocked(
      rt, 1, in.rows() - 1,
      [&](int64_t r0, int64_t r1) { heat_rows(in, out, r0, r1); }, grain);
}

void sor_sweep_seq(Grid2D& grid, double omega) {
  sor_rows(grid, omega, 0, 1, grid.rows() - 1);
  sor_rows(grid, omega, 1, 1, grid.rows() - 1);
}

void sor_sweep_ws(runtime::TaskScheduler& rt, Grid2D& grid, double omega) {
  for (int colour = 0; colour < 2; ++colour) {
    runtime::parallel_for_static(
        rt, 1, grid.rows() - 1, [&grid, omega, colour](int64_t r0,
                                                       int64_t r1) {
          sor_rows(grid, omega, colour, r0, r1);
        });
  }
}

void sor_sweep_tasks(runtime::TaskScheduler& rt, Grid2D& grid, double omega,
                     runtime::DagShape shape, int64_t grain) {
  for (int colour = 0; colour < 2; ++colour) {
    runtime::run_range_tree(rt, 1, grid.rows() - 1, grain, shape,
                            [&grid, omega, colour](int64_t r0, int64_t r1) {
                              sor_rows(grid, omega, colour, r0, r1);
                            });
  }
}

}  // namespace cuttlefish::workloads
