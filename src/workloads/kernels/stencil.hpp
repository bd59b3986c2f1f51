#pragma once

#include <cstdint>
#include <vector>

#include "runtime/dag.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"

namespace cuttlefish::workloads {

/// Dense 2-D grid with a one-cell halo, row-major.
class Grid2D {
 public:
  Grid2D(int64_t rows, int64_t cols, double init = 0.0);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  double& at(int64_t r, int64_t c) { return data_[idx(r, c)]; }
  double at(int64_t r, int64_t c) const { return data_[idx(r, c)]; }

  /// Fix boundary values (Dirichlet) to `value`.
  void set_boundary(double value);
  double checksum() const;
  double max_abs_diff(const Grid2D& other) const;

 private:
  size_t idx(int64_t r, int64_t c) const {
    return static_cast<size_t>(r * cols_ + c);
  }
  int64_t rows_;
  int64_t cols_;
  std::vector<double> data_;
};

/// One Jacobi heat-diffusion step (the paper's Heat benchmark [35]):
/// out(r,c) = average of the four neighbours of in. Interior only.
void heat_step_seq(const Grid2D& in, Grid2D& out);
/// Work-sharing variant: the static-partition loop on the task runtime.
void heat_step_ws(runtime::TaskScheduler& rt, const Grid2D& in, Grid2D& out);
/// Task-DAG variant over row ranges (rt = regular tree, irt = irregular).
void heat_step_tasks(runtime::TaskScheduler& rt, const Grid2D& in,
                     Grid2D& out, runtime::DagShape shape,
                     int64_t grain = 16);
/// Loop variant split by lazy binary splitting instead of the static
/// partition: the same iteration space as heat_step_ws.
void heat_step_lbs(runtime::TaskScheduler& rt, const Grid2D& in, Grid2D& out,
                   int64_t grain = 16);

/// One red-black successive-over-relaxation sweep (the paper's SOR
/// benchmark [7]) with relaxation factor omega; updates in place.
void sor_sweep_seq(Grid2D& grid, double omega);
void sor_sweep_ws(runtime::TaskScheduler& rt, Grid2D& grid, double omega);
void sor_sweep_tasks(runtime::TaskScheduler& rt, Grid2D& grid, double omega,
                     runtime::DagShape shape, int64_t grain = 16);

}  // namespace cuttlefish::workloads
