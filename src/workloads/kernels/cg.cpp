#include "workloads/kernels/cg.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "runtime/parallel_for.hpp"

namespace cuttlefish::workloads {

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b,
           runtime::TaskScheduler* rt) {
  CF_ASSERT(a.size() == b.size(), "dot size mismatch");
  if (rt == nullptr) {
    double acc = 0.0;
    for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
    return acc;
  }
  return runtime::parallel_reduce(
      *rt, 0, static_cast<int64_t>(a.size()),
      [&](int64_t i) { return a[static_cast<size_t>(i)] *
                              b[static_cast<size_t>(i)]; });
}

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y,
          runtime::TaskScheduler* rt) {
  if (rt == nullptr) {
    for (size_t i = 0; i < y.size(); ++i) y[i] += alpha * x[i];
    return;
  }
  runtime::parallel_for_static(
      *rt, 0, static_cast<int64_t>(y.size()),
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          y[static_cast<size_t>(i)] += alpha * x[static_cast<size_t>(i)];
        }
      });
}

}  // namespace

void apply_poisson(const Poisson3D& op, const std::vector<double>& x,
                   std::vector<double>& y, runtime::TaskScheduler* rt) {
  CF_ASSERT(x.size() == static_cast<size_t>(op.unknowns()),
            "operand size mismatch");
  y.resize(x.size());
  auto plane = [&](int64_t k0, int64_t k1) {
    for (int64_t k = k0; k < k1; ++k) {
      for (int64_t j = 0; j < op.ny; ++j) {
        for (int64_t i = 0; i < op.nx; ++i) {
          double acc = 6.0 * x[op.index(i, j, k)];
          if (i > 0) acc -= x[op.index(i - 1, j, k)];
          if (i < op.nx - 1) acc -= x[op.index(i + 1, j, k)];
          if (j > 0) acc -= x[op.index(i, j - 1, k)];
          if (j < op.ny - 1) acc -= x[op.index(i, j + 1, k)];
          if (k > 0) acc -= x[op.index(i, j, k - 1)];
          if (k < op.nz - 1) acc -= x[op.index(i, j, k + 1)];
          y[op.index(i, j, k)] = acc;
        }
      }
    }
  };
  if (rt == nullptr) {
    plane(0, op.nz);
  } else {
    runtime::parallel_for_static(*rt, 0, op.nz, plane);
  }
}

CgResult conjugate_gradient(const Poisson3D& op, const std::vector<double>& b,
                            std::vector<double>& x, int max_iters,
                            double tolerance, runtime::TaskScheduler* rt) {
  const size_t n = static_cast<size_t>(op.unknowns());
  CF_ASSERT(b.size() == n, "rhs size mismatch");
  x.resize(n, 0.0);

  std::vector<double> r(n), p(n), ap(n);
  apply_poisson(op, x, ap, rt);
  for (size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
  p = r;
  double rr = dot(r, r, rt);
  const double stop = tolerance * tolerance * std::max(dot(b, b, rt), 1e-30);

  CgResult result;
  for (int it = 0; it < max_iters; ++it) {
    if (rr <= stop) {
      result.converged = true;
      break;
    }
    apply_poisson(op, p, ap, rt);
    const double alpha = rr / dot(p, ap, rt);
    axpy(alpha, p, x, rt);
    axpy(-alpha, ap, r, rt);
    const double rr_new = dot(r, r, rt);
    const double beta = rr_new / rr;
    for (size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    rr = rr_new;
    result.iterations = it + 1;
  }
  if (rr <= stop) result.converged = true;
  result.residual_norm = std::sqrt(rr);
  return result;
}

MiniFeResult minife_solve(const Poisson3D& op, int max_iters,
                          double tolerance, runtime::TaskScheduler* rt) {
  const size_t n = static_cast<size_t>(op.unknowns());
  // Manufactured solution: a smooth separable field.
  std::vector<double> truth(n);
  for (int64_t k = 0; k < op.nz; ++k) {
    for (int64_t j = 0; j < op.ny; ++j) {
      for (int64_t i = 0; i < op.nx; ++i) {
        const double xi = static_cast<double>(i + 1) /
                          static_cast<double>(op.nx + 1);
        const double yj = static_cast<double>(j + 1) /
                          static_cast<double>(op.ny + 1);
        const double zk = static_cast<double>(k + 1) /
                          static_cast<double>(op.nz + 1);
        truth[op.index(i, j, k)] = xi * (1 - xi) * yj * (1 - yj) * zk *
                                   (1 - zk);
      }
    }
  }
  std::vector<double> b;
  apply_poisson(op, truth, b, rt);

  MiniFeResult out;
  std::vector<double> x;
  out.cg = conjugate_gradient(op, b, x, max_iters, tolerance, rt);
  double err = 0.0;
  for (size_t i = 0; i < n; ++i) err = std::max(err, std::abs(x[i] - truth[i]));
  out.solution_error = err;
  return out;
}

}  // namespace cuttlefish::workloads
