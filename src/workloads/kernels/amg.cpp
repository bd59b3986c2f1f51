#include "workloads/kernels/amg.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "runtime/parallel_for.hpp"

namespace cuttlefish::workloads {

namespace {

size_t idx(int64_t n, int64_t r, int64_t c) {
  return static_cast<size_t>(r * n + c);
}

bool is_power_of_two_plus_one(int64_t n) {
  const int64_t m = n - 1;
  return m >= 4 && (m & (m - 1)) == 0;
}

}  // namespace

Multigrid2D::Multigrid2D(int64_t n, runtime::TaskScheduler* rt)
    : n_(n), rt_(rt) {
  CF_ASSERT(is_power_of_two_plus_one(n), "grid size must be 2^k + 1");
  for (int64_t m = n; m >= 5; m = (m - 1) / 2 + 1) {
    level_n_.push_back(m);
  }
  scratch_u_.resize(level_n_.size());
  scratch_f_.resize(level_n_.size());
  scratch_r_.resize(level_n_.size());
  for (size_t l = 0; l < level_n_.size(); ++l) {
    const auto cells = static_cast<size_t>(level_n_[l] * level_n_[l]);
    scratch_u_[l].assign(cells, 0.0);
    scratch_f_[l].assign(cells, 0.0);
    scratch_r_[l].assign(cells, 0.0);
  }
}

void Multigrid2D::smooth(int level, std::vector<double>& u,
                         const std::vector<double>& f, int sweeps) const {
  const int64_t n = level_n_[static_cast<size_t>(level)];
  const double h = 1.0 / static_cast<double>(n - 1);
  const double h2 = h * h;
  constexpr double kOmega = 0.8;  // damped Jacobi
  std::vector<double> next = u;
  for (int s = 0; s < sweeps; ++s) {
    auto rows = [&](int64_t r0, int64_t r1) {
      for (int64_t r = std::max<int64_t>(r0, 1);
           r < std::min<int64_t>(r1, n - 1); ++r) {
        for (int64_t c = 1; c < n - 1; ++c) {
          const double jac = 0.25 * (u[idx(n, r - 1, c)] + u[idx(n, r + 1, c)] +
                                     u[idx(n, r, c - 1)] + u[idx(n, r, c + 1)] +
                                     h2 * f[idx(n, r, c)]);
          next[idx(n, r, c)] =
              u[idx(n, r, c)] + kOmega * (jac - u[idx(n, r, c)]);
        }
      }
    };
    if (rt_ == nullptr) {
      rows(0, n);
    } else {
      runtime::parallel_for_static(*rt_, 0, n, rows);
    }
    u.swap(next);
  }
}

void Multigrid2D::residual(int level, const std::vector<double>& u,
                           const std::vector<double>& f,
                           std::vector<double>& r) const {
  const int64_t n = level_n_[static_cast<size_t>(level)];
  const double h = 1.0 / static_cast<double>(n - 1);
  const double inv_h2 = 1.0 / (h * h);
  r.assign(static_cast<size_t>(n * n), 0.0);
  for (int64_t row = 1; row < n - 1; ++row) {
    for (int64_t c = 1; c < n - 1; ++c) {
      const double lap =
          (4.0 * u[idx(n, row, c)] - u[idx(n, row - 1, c)] -
           u[idx(n, row + 1, c)] - u[idx(n, row, c - 1)] -
           u[idx(n, row, c + 1)]) *
          inv_h2;
      r[idx(n, row, c)] = f[idx(n, row, c)] - lap;
    }
  }
}

void Multigrid2D::restrict_to(int coarse_level,
                              const std::vector<double>& fine,
                              std::vector<double>& coarse) const {
  const int64_t nc = level_n_[static_cast<size_t>(coarse_level)];
  const int64_t nf = level_n_[static_cast<size_t>(coarse_level - 1)];
  coarse.assign(static_cast<size_t>(nc * nc), 0.0);
  for (int64_t r = 1; r < nc - 1; ++r) {
    for (int64_t c = 1; c < nc - 1; ++c) {
      const int64_t fr = 2 * r;
      const int64_t fc = 2 * c;
      coarse[idx(nc, r, c)] =
          0.25 * fine[idx(nf, fr, fc)] +
          0.125 * (fine[idx(nf, fr - 1, fc)] + fine[idx(nf, fr + 1, fc)] +
                   fine[idx(nf, fr, fc - 1)] + fine[idx(nf, fr, fc + 1)]) +
          0.0625 * (fine[idx(nf, fr - 1, fc - 1)] +
                    fine[idx(nf, fr - 1, fc + 1)] +
                    fine[idx(nf, fr + 1, fc - 1)] +
                    fine[idx(nf, fr + 1, fc + 1)]);
    }
  }
}

void Multigrid2D::prolong_add(int fine_level,
                              const std::vector<double>& coarse,
                              std::vector<double>& fine) const {
  const int64_t nf = level_n_[static_cast<size_t>(fine_level)];
  const int64_t nc = level_n_[static_cast<size_t>(fine_level + 1)];
  for (int64_t r = 0; r < nf; ++r) {
    for (int64_t c = 0; c < nf; ++c) {
      const int64_t cr = r / 2;
      const int64_t cc = c / 2;
      double v;
      if (r % 2 == 0 && c % 2 == 0) {
        v = coarse[idx(nc, cr, cc)];
      } else if (r % 2 == 1 && c % 2 == 0) {
        v = 0.5 * (coarse[idx(nc, cr, cc)] + coarse[idx(nc, cr + 1, cc)]);
      } else if (r % 2 == 0 && c % 2 == 1) {
        v = 0.5 * (coarse[idx(nc, cr, cc)] + coarse[idx(nc, cr, cc + 1)]);
      } else {
        v = 0.25 * (coarse[idx(nc, cr, cc)] + coarse[idx(nc, cr + 1, cc)] +
                    coarse[idx(nc, cr, cc + 1)] +
                    coarse[idx(nc, cr + 1, cc + 1)]);
      }
      fine[idx(nf, r, c)] += v;
    }
  }
}

void Multigrid2D::vcycle_level(int level, std::vector<double>& u,
                               const std::vector<double>& f) {
  const bool coarsest = level == levels() - 1;
  if (coarsest) {
    smooth(level, u, f, 50);  // cheap "direct" solve on the 5x5 grid
    return;
  }
  smooth(level, u, f, 2);
  auto& r = scratch_r_[static_cast<size_t>(level)];
  residual(level, u, f, r);

  auto& cf = scratch_f_[static_cast<size_t>(level + 1)];
  restrict_to(level + 1, r, cf);
  auto& cu = scratch_u_[static_cast<size_t>(level + 1)];
  cu.assign(cu.size(), 0.0);
  vcycle_level(level + 1, cu, cf);
  prolong_add(level, cu, u);
  smooth(level, u, f, 2);
}

double Multigrid2D::vcycle(std::vector<double>& u,
                           const std::vector<double>& f) {
  CF_ASSERT(u.size() == static_cast<size_t>(n_ * n_), "u size mismatch");
  CF_ASSERT(f.size() == u.size(), "f size mismatch");
  vcycle_level(0, u, f);
  return residual_norm(u, f);
}

double Multigrid2D::residual_norm(const std::vector<double>& u,
                                  const std::vector<double>& f) const {
  std::vector<double> r;
  residual(0, u, f, r);
  double acc = 0.0;
  for (double v : r) acc += v * v;
  return std::sqrt(acc);
}

Multigrid2D::SolveResult Multigrid2D::solve(const std::vector<double>& f,
                                            std::vector<double>& u,
                                            int max_cycles,
                                            double tolerance) {
  u.assign(static_cast<size_t>(n_ * n_), 0.0);
  SolveResult res;
  const double f0 = [&] {
    double acc = 0.0;
    for (double v : f) acc += v * v;
    return std::max(std::sqrt(acc), 1e-30);
  }();
  for (int cyc = 0; cyc < max_cycles; ++cyc) {
    res.residual_norm = vcycle(u, f);
    res.cycles = cyc + 1;
    if (res.residual_norm <= tolerance * f0) {
      res.converged = true;
      break;
    }
  }
  return res;
}

}  // namespace cuttlefish::workloads
