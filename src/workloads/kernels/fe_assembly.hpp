#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace cuttlefish::runtime {
class TaskScheduler;
}  // namespace cuttlefish::runtime

namespace cuttlefish::workloads {

/// Trilinear hexahedral (hex8) finite-element assembly for the Poisson
/// operator on a structured nx x ny x nz element mesh — the assembly
/// phase of the MiniFE mini-application [1, 11], which precedes its CG
/// solve. Produces a CSR sparse matrix with the standard 27-point
/// connectivity.
struct CsrMatrix {
  int64_t rows = 0;
  std::vector<int64_t> row_ptr;
  std::vector<int64_t> col_idx;
  std::vector<double> values;

  /// y = A x; `rt` may be null for sequential execution.
  void apply(const std::vector<double>& x, std::vector<double>& y,
             runtime::TaskScheduler* rt = nullptr) const;
  /// Sum of one row's coefficients (interior Poisson rows sum to ~0).
  double row_sum(int64_t row) const;
  int64_t nonzeros() const { return static_cast<int64_t>(values.size()); }
};

struct FeMesh {
  int64_t nx = 4;  // elements per dimension
  int64_t ny = 4;
  int64_t nz = 4;

  int64_t nodes_x() const { return nx + 1; }
  int64_t nodes_y() const { return ny + 1; }
  int64_t nodes_z() const { return nz + 1; }
  int64_t node_count() const {
    return nodes_x() * nodes_y() * nodes_z();
  }
  int64_t element_count() const { return nx * ny * nz; }
  int64_t node_index(int64_t i, int64_t j, int64_t k) const {
    return (k * nodes_y() + j) * nodes_x() + i;
  }
  bool boundary_node(int64_t i, int64_t j, int64_t k) const {
    return i == 0 || j == 0 || k == 0 || i == nodes_x() - 1 ||
           j == nodes_y() - 1 || k == nodes_z() - 1;
  }
};

/// 8x8 element stiffness matrix of the unit-cube hex8 Laplacian with
/// 2x2x2 Gauss quadrature, scaled to element size h. Exact for the
/// Poisson bilinear form; symmetric positive semi-definite with row sums
/// zero (constant fields are in the kernel).
std::array<std::array<double, 8>, 8> hex8_stiffness(double h);

/// Assemble the global stiffness matrix with Dirichlet rows replaced by
/// identity (the MiniFE boundary treatment). Thread-safe parallel
/// assembly when `rt` is given: each task owns a range of rows and
/// accumulates only into them.
CsrMatrix assemble_poisson(const FeMesh& mesh,
                           runtime::TaskScheduler* rt = nullptr);

/// Full MiniFE-style pipeline: assemble, build the right-hand side for a
/// manufactured solution, solve with CG, report iterations and error.
struct FeSolveResult {
  int cg_iterations = 0;
  double residual_norm = 0.0;
  double solution_error = 0.0;
  bool converged = false;
};
FeSolveResult minife_assemble_and_solve(const FeMesh& mesh, int max_iters,
                                        double tolerance,
                                        runtime::TaskScheduler* rt = nullptr);

}  // namespace cuttlefish::workloads
