#include "workloads/kernels/fe_assembly.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "runtime/scheduler.hpp"

namespace cuttlefish::workloads {
namespace {

TEST(Hex8Stiffness, SymmetricWithZeroRowSums) {
  const auto ke = hex8_stiffness(0.25);
  for (int a = 0; a < 8; ++a) {
    double row = 0.0;
    for (int b = 0; b < 8; ++b) {
      EXPECT_NEAR(ke[static_cast<size_t>(a)][static_cast<size_t>(b)],
                  ke[static_cast<size_t>(b)][static_cast<size_t>(a)], 1e-14);
      row += ke[static_cast<size_t>(a)][static_cast<size_t>(b)];
    }
    // Constant fields carry no Laplacian energy.
    EXPECT_NEAR(row, 0.0, 1e-12);
  }
}

TEST(Hex8Stiffness, DiagonalPositiveAndScalesLinearlyWithH) {
  const auto k1 = hex8_stiffness(1.0);
  const auto k2 = hex8_stiffness(0.5);
  for (int a = 0; a < 8; ++a) {
    EXPECT_GT(k1[static_cast<size_t>(a)][static_cast<size_t>(a)], 0.0);
    // Poisson stiffness scales with h (grad^2 ~ h^-2 times volume h^3).
    EXPECT_NEAR(k2[static_cast<size_t>(a)][static_cast<size_t>(a)],
                0.5 * k1[static_cast<size_t>(a)][static_cast<size_t>(a)],
                1e-12);
  }
}

TEST(Hex8Stiffness, MatchesKnownHex8DiagonalValue) {
  // For the unit cube, the hex8 Poisson stiffness diagonal is 1/3.
  const auto ke = hex8_stiffness(1.0);
  for (int a = 0; a < 8; ++a) {
    EXPECT_NEAR(ke[static_cast<size_t>(a)][static_cast<size_t>(a)],
                1.0 / 3.0, 1e-12);
  }
}

TEST(FeAssembly, MatrixShapeAndBoundaryRows) {
  FeMesh mesh{4, 4, 4};
  const CsrMatrix a = assemble_poisson(mesh);
  EXPECT_EQ(a.rows, mesh.node_count());
  // Dirichlet rows are exact identity.
  EXPECT_DOUBLE_EQ(a.row_sum(0), 1.0);
  const int64_t corner = mesh.node_index(0, 0, 0);
  EXPECT_EQ(a.row_ptr[static_cast<size_t>(corner) + 1] -
                a.row_ptr[static_cast<size_t>(corner)],
            1);
}

TEST(FeAssembly, DeepInteriorRowsHave27PointConnectivity) {
  FeMesh mesh{6, 6, 6};
  const CsrMatrix a = assemble_poisson(mesh);
  const int64_t row = mesh.node_index(3, 3, 3);
  const int64_t nnz = a.row_ptr[static_cast<size_t>(row) + 1] -
                      a.row_ptr[static_cast<size_t>(row)];
  EXPECT_EQ(nnz, 27);
  // Interior-only rows keep the zero-row-sum (constant nullspace)
  // property since none of their neighbours were chopped.
  EXPECT_NEAR(a.row_sum(row), 0.0, 1e-12);
}

TEST(FeAssembly, ParallelAssemblyMatchesSequential) {
  runtime::TaskScheduler rt(4);
  FeMesh mesh{5, 4, 6};
  const CsrMatrix seq = assemble_poisson(mesh);
  const CsrMatrix par = assemble_poisson(mesh, &rt);
  ASSERT_EQ(seq.nonzeros(), par.nonzeros());
  ASSERT_EQ(seq.row_ptr, par.row_ptr);
  ASSERT_EQ(seq.col_idx, par.col_idx);
  for (size_t i = 0; i < seq.values.size(); ++i) {
    ASSERT_NEAR(seq.values[i], par.values[i], 1e-14);
  }
}

TEST(FeAssembly, OperatorIsSymmetric) {
  FeMesh mesh{4, 4, 4};
  const CsrMatrix a = assemble_poisson(mesh);
  // x'Ay == y'Ax for random-ish vectors.
  const size_t n = static_cast<size_t>(a.rows);
  std::vector<double> x(n), y(n), ax, ay;
  for (size_t i = 0; i < n; ++i) {
    x[i] = std::sin(static_cast<double>(i) * 0.7);
    y[i] = std::cos(static_cast<double>(i) * 1.3);
  }
  a.apply(x, ax);
  a.apply(y, ay);
  double xay = 0.0, yax = 0.0;
  for (size_t i = 0; i < n; ++i) {
    xay += x[i] * ay[i];
    yax += y[i] * ax[i];
  }
  EXPECT_NEAR(xay, yax, 1e-9 * std::abs(xay));
}

TEST(FeAssembly, SolvePipelineRecoversManufacturedSolution) {
  FeMesh mesh{8, 8, 8};
  const FeSolveResult r = minife_assemble_and_solve(mesh, 500, 1e-10);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.solution_error, 1e-8);
  EXPECT_GT(r.cg_iterations, 3);
}

TEST(FeAssembly, ParallelSolveMatchesSequential) {
  runtime::TaskScheduler rt(4);
  FeMesh mesh{6, 6, 6};
  const FeSolveResult seq = minife_assemble_and_solve(mesh, 500, 1e-10);
  const FeSolveResult par =
      minife_assemble_and_solve(mesh, 500, 1e-10, &rt);
  EXPECT_TRUE(par.converged);
  EXPECT_EQ(seq.cg_iterations, par.cg_iterations);
  EXPECT_NEAR(seq.solution_error, par.solution_error, 1e-12);
}

TEST(FeAssembly, IterationCountGrowsWithMesh) {
  const FeSolveResult small = minife_assemble_and_solve({4, 4, 4}, 500, 1e-10);
  const FeSolveResult large =
      minife_assemble_and_solve({10, 10, 10}, 500, 1e-10);
  EXPECT_TRUE(small.converged);
  EXPECT_TRUE(large.converged);
  EXPECT_GT(large.cg_iterations, small.cg_iterations);
}

}  // namespace
}  // namespace cuttlefish::workloads
