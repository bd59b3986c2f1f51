#include <gtest/gtest.h>

#include <cmath>

#include "runtime/scheduler.hpp"
#include "workloads/kernels/amg.hpp"
#include "workloads/kernels/cg.hpp"
#include "workloads/kernels/stencil.hpp"
#include "workloads/kernels/uts.hpp"

namespace cuttlefish::workloads {
namespace {

// --- UTS ---------------------------------------------------------------

TEST(Uts, SequentialIsDeterministic) {
  UtsParams p;
  p.root_branching = 50;
  EXPECT_EQ(uts_count_sequential(p), uts_count_sequential(p));
}

TEST(Uts, ParallelMatchesSequential) {
  // 0 and 1 root children leave the root-range halving nothing to hand
  // out; 7 gives it uneven halves.
  for (const int workers : {1, 2, 4}) {
    runtime::TaskScheduler rt(workers);
    for (const int branching : {0, 1, 7, 100}) {
      UtsParams p;
      p.root_branching = branching;
      EXPECT_EQ(uts_count_parallel(rt, p), uts_count_sequential(p))
          << branching << " root children at " << workers << " workers";
    }
  }
}

TEST(Uts, SizeNearExpectation) {
  UtsParams p;
  p.root_branching = 2000;
  const auto n = static_cast<double>(uts_count_sequential(p));
  const double expected = uts_expected_size(p);
  EXPECT_GT(n, expected * 0.5);
  EXPECT_LT(n, expected * 2.0);
}

TEST(Uts, DifferentSeedsGiveDifferentTrees) {
  UtsParams a;
  a.root_branching = 200;
  UtsParams b = a;
  b.root_seed = 43;
  EXPECT_NE(uts_count_sequential(a), uts_count_sequential(b));
}

// --- Heat / SOR stencils ------------------------------------------------

Grid2D hot_plate(int64_t n) {
  Grid2D g(n, n, 0.0);
  for (int64_t c = 0; c < n; ++c) g.at(0, c) = 100.0;  // hot top edge
  return g;
}

TEST(Heat, WsMatchesSequential) {
  runtime::TaskScheduler rt(4);
  Grid2D in = hot_plate(65);
  Grid2D out_seq(65, 65), out_ws(65, 65);
  heat_step_seq(in, out_seq);
  heat_step_ws(rt, in, out_ws);
  EXPECT_EQ(out_seq.max_abs_diff(out_ws), 0.0);
}

TEST(Heat, TaskVariantsMatchSequential) {
  runtime::TaskScheduler rt(4);
  Grid2D in = hot_plate(65);
  Grid2D out_seq(65, 65), out_rt(65, 65), out_irt(65, 65), out_lbs(65, 65);
  heat_step_seq(in, out_seq);
  heat_step_tasks(rt, in, out_rt, runtime::DagShape::kRegular);
  heat_step_tasks(rt, in, out_irt, runtime::DagShape::kIrregular);
  heat_step_lbs(rt, in, out_lbs);
  EXPECT_EQ(out_seq.max_abs_diff(out_rt), 0.0);
  EXPECT_EQ(out_seq.max_abs_diff(out_irt), 0.0);
  EXPECT_EQ(out_seq.max_abs_diff(out_lbs), 0.0);
}

TEST(Heat, DiffusionConvergesTowardsLinearProfile) {
  Grid2D a = hot_plate(33);
  Grid2D b(33, 33);
  for (int step = 0; step < 4000; ++step) {
    heat_step_seq(a, b);
    b.at(0, 0) = a.at(0, 0);  // keep boundaries (copy untouched edges)
    std::swap(a, b);
    // heat_step only writes the interior; boundaries persist in both
    // buffers after the first two steps.
  }
  // Mid-column value should sit strictly between the plate temperatures.
  const double mid = a.at(16, 16);
  EXPECT_GT(mid, 1.0);
  EXPECT_LT(mid, 99.0);
}

TEST(Sor, WsMatchesSequential) {
  runtime::TaskScheduler rt(4);
  Grid2D a = hot_plate(65);
  Grid2D b = hot_plate(65);
  for (int i = 0; i < 5; ++i) {
    sor_sweep_seq(a, 1.5);
    sor_sweep_ws(rt, b, 1.5);
  }
  EXPECT_LT(a.max_abs_diff(b), 1e-12);
}

TEST(Sor, TaskVariantsMatchSequential) {
  runtime::TaskScheduler rt(4);
  Grid2D a = hot_plate(65);
  Grid2D b = hot_plate(65);
  Grid2D c = hot_plate(65);
  for (int i = 0; i < 3; ++i) {
    sor_sweep_seq(a, 1.5);
    sor_sweep_tasks(rt, b, 1.5, runtime::DagShape::kRegular);
    sor_sweep_tasks(rt, c, 1.5, runtime::DagShape::kIrregular);
  }
  EXPECT_LT(a.max_abs_diff(b), 1e-12);
  EXPECT_LT(a.max_abs_diff(c), 1e-12);
}

TEST(Sor, SweepReducesLaplacianResidual) {
  Grid2D g = hot_plate(33);
  auto residual = [&] {
    double acc = 0.0;
    for (int64_t r = 1; r < 32; ++r) {
      for (int64_t c = 1; c < 32; ++c) {
        const double lap = g.at(r - 1, c) + g.at(r + 1, c) +
                           g.at(r, c - 1) + g.at(r, c + 1) -
                           4.0 * g.at(r, c);
        acc += lap * lap;
      }
    }
    return std::sqrt(acc);
  };
  const double before = residual();
  for (int i = 0; i < 200; ++i) sor_sweep_seq(g, 1.7);
  EXPECT_LT(residual(), before * 1e-3);
}

// --- CG / MiniFE ---------------------------------------------------------

TEST(Cg, SolvesPoissonSystem) {
  Poisson3D op{12, 12, 12};
  MiniFeResult r = minife_solve(op, 500, 1e-10, nullptr);
  EXPECT_TRUE(r.cg.converged);
  EXPECT_LT(r.solution_error, 1e-8);
}

TEST(Cg, ParallelMatchesSequential) {
  runtime::TaskScheduler rt(4);
  Poisson3D op{10, 10, 10};
  MiniFeResult seq = minife_solve(op, 500, 1e-10, nullptr);
  MiniFeResult par = minife_solve(op, 500, 1e-10, &rt);
  EXPECT_TRUE(par.cg.converged);
  EXPECT_NEAR(par.solution_error, seq.solution_error, 1e-9);
  // The dot products add one partial per static chunk in chunk order, so
  // the solve's bytes are fixed at a fixed worker count. These are its
  // bytes at 4 workers.
  EXPECT_EQ(par.cg.iterations, 23);
  EXPECT_EQ(par.cg.residual_norm, 0x1.e6205dbc73a0cp-39);
  EXPECT_EQ(par.solution_error, 0x1.7c4e6p-44);
}

TEST(Cg, IterationCountScalesWithGrid) {
  Poisson3D small{6, 6, 6};
  Poisson3D large{14, 14, 14};
  MiniFeResult rs = minife_solve(small, 500, 1e-10, nullptr);
  MiniFeResult rl = minife_solve(large, 500, 1e-10, nullptr);
  EXPECT_TRUE(rs.cg.converged);
  EXPECT_TRUE(rl.cg.converged);
  EXPECT_GT(rl.cg.iterations, rs.cg.iterations);
}

TEST(Cg, ApplyPoissonOfConstantVectorVanishesInInterior) {
  Poisson3D op{8, 8, 8};
  std::vector<double> x(static_cast<size_t>(op.unknowns()), 1.0);
  std::vector<double> y;
  apply_poisson(op, x, y, nullptr);
  // Strict interior rows sum their 7 coefficients to zero.
  EXPECT_DOUBLE_EQ(y[op.index(4, 4, 4)], 0.0);
  // Boundary rows keep a positive diagonal surplus (Dirichlet).
  EXPECT_GT(y[op.index(0, 0, 0)], 0.0);
}

// --- AMG -----------------------------------------------------------------

TEST(Amg, VcycleReducesResidual) {
  const int64_t n = 65;
  Multigrid2D mg(n);
  std::vector<double> f(static_cast<size_t>(n * n), 1.0);
  std::vector<double> u(static_cast<size_t>(n * n), 0.0);
  const double r0 = mg.residual_norm(u, f);
  const double r1 = mg.vcycle(u, f);
  EXPECT_LT(r1, r0 * 0.2);  // one V-cycle contracts the residual hard
}

TEST(Amg, SolveConverges) {
  const int64_t n = 65;
  Multigrid2D mg(n);
  std::vector<double> f(static_cast<size_t>(n * n), 1.0);
  std::vector<double> u;
  const auto res = mg.solve(f, u, 50, 1e-8);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.cycles, 30);
}

TEST(Amg, HierarchyDepthMatchesGridSize) {
  Multigrid2D mg(65);
  // 65 -> 33 -> 17 -> 9 -> 5.
  EXPECT_EQ(mg.levels(), 5);
}

TEST(Amg, ParallelSmootherMatchesSequential) {
  runtime::TaskScheduler rt(4);
  const int64_t n = 33;
  std::vector<double> f(static_cast<size_t>(n * n), 1.0);
  Multigrid2D seq(n, nullptr);
  Multigrid2D par(n, &rt);
  std::vector<double> u1, u2;
  const auto r1 = seq.solve(f, u1, 12, 1e-9);
  const auto r2 = par.solve(f, u2, 12, 1e-9);
  EXPECT_NEAR(r1.residual_norm, r2.residual_norm, 1e-9);
  for (size_t i = 0; i < u1.size(); ++i) {
    ASSERT_NEAR(u1[i], u2[i], 1e-12);
  }
}

}  // namespace
}  // namespace cuttlefish::workloads
