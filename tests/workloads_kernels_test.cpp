#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <iterator>
#include <vector>

#include "common/rng.hpp"
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
  // 0 and 1 root children leave the root-range split nothing to hand out;
  // 7 gives it uneven halves. The 44,000-root-child tree (~477k nodes)
  // runs long enough at 2 and 4 workers for real steals, which the
  // sanitizer builds of this test then check.
  for (const int workers : {1, 2, 4}) {
    runtime::TaskScheduler rt(workers);
    for (const int branching : {0, 1, 7, 100, 44000}) {
      UtsParams p;
      if (branching == 44000) p.root_seed = 1000;  // cfbench's tree
      p.root_branching = branching;
      EXPECT_EQ(uts_count_parallel(rt, p), uts_count_sequential(p))
          << branching << " root children at " << workers << " workers";
    }
  }
}

TEST(Uts, OneWorkerSpawnsOnlyWhenItsDequeIsEmpty) {
  // With one worker nobody steals, so after the first split the deque is
  // never empty while a task runs: each root-range task sheds one upper
  // half and walks the rest inline, ~log2(44,000) tasks in all. One task
  // per node down to depth 6 would be 213,760.
  runtime::TaskScheduler rt(1);
  UtsParams p;
  p.root_seed = 1000;
  p.root_branching = 44000;
  const uint64_t before = rt.stats().executed;
  EXPECT_EQ(uts_count_parallel(rt, p), 477105u);
  EXPECT_LT(rt.stats().executed - before, 64u);
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

TEST(Heat, CfbenchShapeChecksumIsPinned) {
  // cfbench's session_kernel reference: 257², hot top row, 100 steps.
  // The bits were taken from the one-column-at-a-time row loop.
  Grid2D a = hot_plate(257);
  Grid2D b = a;
  for (int s = 0; s < 100; ++s) {
    heat_step_seq(a, b);
    std::swap(a, b);
  }
  EXPECT_EQ(a.checksum(), 0x1.2e25a80b59865p+17);
}

/// One Jacobi step one point at a time, in the association order the
/// kernels document: 0.25 * (((up + down) + left) + right).
void scalar_heat_step(const Grid2D& in, Grid2D& out) {
  for (int64_t r = 1; r < in.rows() - 1; ++r) {
    for (int64_t c = 1; c < in.cols() - 1; ++c) {
      const double sum = ((in.at(r - 1, c) + in.at(r + 1, c)) +
                          in.at(r, c - 1)) +
                         in.at(r, c + 1);
      out.at(r, c) = 0.25 * sum;
    }
  }
}

bool same_bits(const Grid2D& a, const Grid2D& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      if (std::bit_cast<uint64_t>(a.at(r, c)) !=
          std::bit_cast<uint64_t>(b.at(r, c))) {
        return false;
      }
    }
  }
  return true;
}

TEST(Heat, EveryDecompositionMatchesAScalarReferenceAtEveryWidth) {
  // Odd interior widths end in the scalar tail; 3 columns leave a single
  // interior column, 257 is cfbench's width.
  runtime::TaskScheduler rt(4);
  std::vector<int64_t> widths;
  for (int64_t w = 3; w <= 20; ++w) widths.push_back(w);
  widths.push_back(257);
  for (const int64_t cols : widths) {
    constexpr int64_t kRows = 21;
    Grid2D in(kRows, cols);
    SplitMix64 rng(static_cast<uint64_t>(cols));
    for (int64_t r = 0; r < kRows; ++r) {
      for (int64_t c = 0; c < cols; ++c) {
        in.at(r, c) = 200.0 * rng.next_double() - 100.0;
      }
    }
    // Distinct outputs start from a copy of the input, so the boundary
    // the kernels never write compares equal too.
    Grid2D ref = in;
    scalar_heat_step(in, ref);
    const std::function<void(Grid2D&)> variants[] = {
        [&](Grid2D& out) { heat_step_seq(in, out); },
        [&](Grid2D& out) { heat_step_ws(rt, in, out); },
        [&](Grid2D& out) { heat_step_lbs(rt, in, out, 3); },
        [&](Grid2D& out) {
          heat_step_tasks(rt, in, out, runtime::DagShape::kRegular, 3);
        },
        [&](Grid2D& out) {
          heat_step_tasks(rt, in, out, runtime::DagShape::kIrregular, 3);
        }};
    const char* const names[] = {"seq", "ws", "lbs", "rt", "irt"};
    for (size_t v = 0; v < std::size(variants); ++v) {
      Grid2D out = in;
      variants[v](out);
      EXPECT_TRUE(same_bits(out, ref)) << names[v] << " at width " << cols;
    }
  }
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
