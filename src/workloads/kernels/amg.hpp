#pragma once

#include <cstdint>
#include <vector>

namespace cuttlefish::runtime {
class TaskScheduler;
}  // namespace cuttlefish::runtime

namespace cuttlefish::workloads {

/// Geometric multigrid V-cycle solver for the 2-D Poisson problem
/// -lap(u) = f on the unit square (Dirichlet 0 boundary) — the structured
/// stand-in for the paper's AMG benchmark [32]. Damped-Jacobi smoothing,
/// full-weighting restriction, bilinear prolongation. The level hierarchy
/// is what gives AMG its many distinct memory-access phases: each level
/// touches a different working-set size.
class Multigrid2D {
 public:
  /// n must be (2^k)+1 with k >= 2; levels are built down to 5x5. The
  /// smoother runs on `rt` when it is given, sequentially otherwise.
  explicit Multigrid2D(int64_t n, runtime::TaskScheduler* rt = nullptr);

  /// Run one V-cycle for A u = f; returns the resulting residual 2-norm.
  double vcycle(std::vector<double>& u, const std::vector<double>& f);

  struct SolveResult {
    int cycles = 0;
    double residual_norm = 0.0;
    bool converged = false;
  };
  /// Repeated V-cycles from a zero initial guess.
  SolveResult solve(const std::vector<double>& f, std::vector<double>& u,
                    int max_cycles, double tolerance);

  int64_t n() const { return n_; }
  int levels() const { return static_cast<int>(level_n_.size()); }
  double residual_norm(const std::vector<double>& u,
                       const std::vector<double>& f) const;

 private:
  void smooth(int level, std::vector<double>& u,
              const std::vector<double>& f, int sweeps) const;
  void residual(int level, const std::vector<double>& u,
                const std::vector<double>& f, std::vector<double>& r) const;
  void restrict_to(int coarse_level, const std::vector<double>& fine,
                   std::vector<double>& coarse) const;
  void prolong_add(int fine_level, const std::vector<double>& coarse,
                   std::vector<double>& fine) const;
  void vcycle_level(int level, std::vector<double>& u,
                    const std::vector<double>& f);

  int64_t n_;
  runtime::TaskScheduler* rt_;
  std::vector<int64_t> level_n_;                  // grid size per level
  std::vector<std::vector<double>> scratch_u_;    // per-level work vectors
  std::vector<std::vector<double>> scratch_f_;
  std::vector<std::vector<double>> scratch_r_;
};

}  // namespace cuttlefish::workloads
