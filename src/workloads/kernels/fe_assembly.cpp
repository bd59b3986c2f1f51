#include "workloads/kernels/fe_assembly.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/assert.hpp"
#include "runtime/parallel_for.hpp"
#include "workloads/kernels/cg.hpp"

namespace cuttlefish::workloads {

void CsrMatrix::apply(const std::vector<double>& x, std::vector<double>& y,
                      runtime::TaskScheduler* rt) const {
  CF_ASSERT(static_cast<int64_t>(x.size()) == rows, "operand size mismatch");
  y.assign(static_cast<size_t>(rows), 0.0);
  auto row_range = [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      double acc = 0.0;
      for (int64_t p = row_ptr[static_cast<size_t>(r)];
           p < row_ptr[static_cast<size_t>(r) + 1]; ++p) {
        acc += values[static_cast<size_t>(p)] *
               x[static_cast<size_t>(col_idx[static_cast<size_t>(p)])];
      }
      y[static_cast<size_t>(r)] = acc;
    }
  };
  if (rt == nullptr) {
    row_range(0, rows);
  } else {
    runtime::parallel_for_static(*rt, 0, rows, row_range);
  }
}

double CsrMatrix::row_sum(int64_t row) const {
  double acc = 0.0;
  for (int64_t p = row_ptr[static_cast<size_t>(row)];
       p < row_ptr[static_cast<size_t>(row) + 1]; ++p) {
    acc += values[static_cast<size_t>(p)];
  }
  return acc;
}

std::array<std::array<double, 8>, 8> hex8_stiffness(double h) {
  CF_ASSERT(h > 0.0, "element size must be positive");
  // Node-local reference coordinates of the hex8 element.
  static constexpr double xi[8] = {-1, 1, 1, -1, -1, 1, 1, -1};
  static constexpr double eta[8] = {-1, -1, 1, 1, -1, -1, 1, 1};
  static constexpr double zeta[8] = {-1, -1, -1, -1, 1, 1, 1, 1};
  // 2x2x2 Gauss points at +-1/sqrt(3).
  const double g = 1.0 / std::sqrt(3.0);

  std::array<std::array<double, 8>, 8> ke{};
  for (int gx = 0; gx < 2; ++gx) {
    for (int gy = 0; gy < 2; ++gy) {
      for (int gz = 0; gz < 2; ++gz) {
        const double px = gx == 0 ? -g : g;
        const double py = gy == 0 ? -g : g;
        const double pz = gz == 0 ? -g : g;
        // Shape-function gradients in reference coordinates.
        double dx[8], dy[8], dz[8];
        for (int a = 0; a < 8; ++a) {
          dx[a] = 0.125 * xi[a] * (1 + eta[a] * py) * (1 + zeta[a] * pz);
          dy[a] = 0.125 * eta[a] * (1 + xi[a] * px) * (1 + zeta[a] * pz);
          dz[a] = 0.125 * zeta[a] * (1 + xi[a] * px) * (1 + eta[a] * py);
        }
        // For an axis-aligned cube of side h the Jacobian is (h/2) I:
        // physical gradients scale by 2/h and the volume weight is
        // (h/2)^3 per Gauss point (unit weights).
        const double scale = (2.0 / h) * (2.0 / h) * (h / 2.0) * (h / 2.0) *
                             (h / 2.0);
        for (int a = 0; a < 8; ++a) {
          for (int b = 0; b < 8; ++b) {
            ke[static_cast<size_t>(a)][static_cast<size_t>(b)] +=
                scale * (dx[a] * dx[b] + dy[a] * dy[b] + dz[a] * dz[b]);
          }
        }
      }
    }
  }
  return ke;
}

namespace {

/// Local node -> global node index for element (ex, ey, ez).
std::array<int64_t, 8> element_nodes(const FeMesh& mesh, int64_t ex,
                                     int64_t ey, int64_t ez) {
  return {
      mesh.node_index(ex, ey, ez),         mesh.node_index(ex + 1, ey, ez),
      mesh.node_index(ex + 1, ey + 1, ez), mesh.node_index(ex, ey + 1, ez),
      mesh.node_index(ex, ey, ez + 1),     mesh.node_index(ex + 1, ey, ez + 1),
      mesh.node_index(ex + 1, ey + 1, ez + 1),
      mesh.node_index(ex, ey + 1, ez + 1)};
}

bool node_on_boundary(const FeMesh& mesh, int64_t node) {
  const int64_t nxn = mesh.nodes_x();
  const int64_t nyn = mesh.nodes_y();
  const int64_t i = node % nxn;
  const int64_t j = (node / nxn) % nyn;
  const int64_t k = node / (nxn * nyn);
  return mesh.boundary_node(i, j, k);
}

}  // namespace

CsrMatrix assemble_poisson(const FeMesh& mesh, runtime::TaskScheduler* rt) {
  const int64_t n = mesh.node_count();
  const double h = 1.0 / static_cast<double>(
                             std::max({mesh.nx, mesh.ny, mesh.nz}));
  const auto ke = hex8_stiffness(h);

  // Per-row coefficient accumulation. Rows are independent, so the
  // parallel variant partitions rows and each thread scans the (at most
  // eight) elements touching its rows — a scatter-free assembly.
  std::vector<std::map<int64_t, double>> row_acc(static_cast<size_t>(n));

  auto assemble_rows = [&](int64_t r0, int64_t r1) {
    for (int64_t ez = 0; ez < mesh.nz; ++ez) {
      for (int64_t ey = 0; ey < mesh.ny; ++ey) {
        for (int64_t ex = 0; ex < mesh.nx; ++ex) {
          const auto nodes = element_nodes(mesh, ex, ey, ez);
          for (int a = 0; a < 8; ++a) {
            const int64_t row = nodes[static_cast<size_t>(a)];
            if (row < r0 || row >= r1) continue;
            auto& acc = row_acc[static_cast<size_t>(row)];
            for (int b = 0; b < 8; ++b) {
              acc[nodes[static_cast<size_t>(b)]] +=
                  ke[static_cast<size_t>(a)][static_cast<size_t>(b)];
            }
          }
        }
      }
    }
  };
  if (rt == nullptr) {
    assemble_rows(0, n);
  } else {
    runtime::parallel_for_static(*rt, 0, n, assemble_rows);
  }

  // Dirichlet rows -> identity (MiniFE's boundary treatment).
  CsrMatrix csr;
  csr.rows = n;
  csr.row_ptr.reserve(static_cast<size_t>(n) + 1);
  csr.row_ptr.push_back(0);
  for (int64_t row = 0; row < n; ++row) {
    if (node_on_boundary(mesh, row)) {
      csr.col_idx.push_back(row);
      csr.values.push_back(1.0);
    } else {
      for (const auto& [col, value] : row_acc[static_cast<size_t>(row)]) {
        if (node_on_boundary(mesh, col)) continue;  // chopped by lifting
        csr.col_idx.push_back(col);
        csr.values.push_back(value);
      }
    }
    csr.row_ptr.push_back(static_cast<int64_t>(csr.col_idx.size()));
  }
  return csr;
}

FeSolveResult minife_assemble_and_solve(const FeMesh& mesh, int max_iters,
                                        double tolerance,
                                        runtime::TaskScheduler* rt) {
  const CsrMatrix a = assemble_poisson(mesh, rt);
  const int64_t n = mesh.node_count();

  // Manufactured solution: product-of-parabolas field, zero on the
  // boundary so the Dirichlet lifting is exact.
  std::vector<double> truth(static_cast<size_t>(n), 0.0);
  for (int64_t k = 0; k < mesh.nodes_z(); ++k) {
    for (int64_t j = 0; j < mesh.nodes_y(); ++j) {
      for (int64_t i = 0; i < mesh.nodes_x(); ++i) {
        const double x = static_cast<double>(i) /
                         static_cast<double>(mesh.nodes_x() - 1);
        const double y = static_cast<double>(j) /
                         static_cast<double>(mesh.nodes_y() - 1);
        const double z = static_cast<double>(k) /
                         static_cast<double>(mesh.nodes_z() - 1);
        truth[static_cast<size_t>(mesh.node_index(i, j, k))] =
            x * (1 - x) * y * (1 - y) * z * (1 - z);
      }
    }
  }
  std::vector<double> b;
  a.apply(truth, b, rt);

  // CG on the assembled operator.
  std::vector<double> x(static_cast<size_t>(n), 0.0);
  std::vector<double> r = b, p = b, ap;
  double rr = 0.0;
  for (double v : r) rr += v * v;
  const double stop = tolerance * tolerance * std::max(rr, 1e-30);

  FeSolveResult result;
  for (int it = 0; it < max_iters && rr > stop; ++it) {
    a.apply(p, ap, rt);
    double pap = 0.0;
    for (size_t i = 0; i < p.size(); ++i) pap += p[i] * ap[i];
    const double alpha = rr / pap;
    for (size_t i = 0; i < x.size(); ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    double rr_new = 0.0;
    for (double v : r) rr_new += v * v;
    const double beta = rr_new / rr;
    for (size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * p[i];
    rr = rr_new;
    result.cg_iterations = it + 1;
  }
  result.converged = rr <= stop;
  result.residual_norm = std::sqrt(rr);
  double err = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    err = std::max(err, std::abs(x[i] - truth[i]));
  }
  result.solution_error = err;
  return result;
}

}  // namespace cuttlefish::workloads
