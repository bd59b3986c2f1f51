#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cuttlefish::runtime {
class TaskScheduler;
}  // namespace cuttlefish::runtime

namespace cuttlefish::workloads {

/// Matrix-free 7-point Laplacian on an nx x ny x nz grid — the operator at
/// the heart of both HPCCG and the MiniFE solve phase (Mantevo [1, 11]).
struct Poisson3D {
  int64_t nx = 16;
  int64_t ny = 16;
  int64_t nz = 16;

  int64_t unknowns() const { return nx * ny * nz; }
  size_t index(int64_t i, int64_t j, int64_t k) const {
    return static_cast<size_t>((k * ny + j) * nx + i);
  }
};

/// y = A x (7-point stencil, Dirichlet truncation at the boundary).
/// `rt` may be null for sequential execution.
void apply_poisson(const Poisson3D& op, const std::vector<double>& x,
                   std::vector<double>& y, runtime::TaskScheduler* rt);

struct CgResult {
  int iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
};

/// Conjugate gradients for A x = b; x is the initial guess on entry and
/// the solution on exit.
CgResult conjugate_gradient(const Poisson3D& op, const std::vector<double>& b,
                            std::vector<double>& x, int max_iters,
                            double tolerance, runtime::TaskScheduler* rt);

/// MiniFE-style driver: "assemble" the right-hand side from a manufactured
/// solution, run CG, and report the error against that solution.
struct MiniFeResult {
  CgResult cg;
  double solution_error = 0.0;
};
MiniFeResult minife_solve(const Poisson3D& op, int max_iters,
                          double tolerance, runtime::TaskScheduler* rt);

}  // namespace cuttlefish::workloads
