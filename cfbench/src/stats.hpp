#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

/// Order statistics shared by the end-to-end and per-layer metrics. Every
/// helper takes its samples by value (it sorts a copy) and returns 0 for an
/// empty input, so a layer a workload never calls reads as zero rather
/// than as undefined.
namespace cfbench {

/// Linear-interpolation percentile (numpy's default; p in [0, 100]).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// Interquartile range as a share of the median (the spread the benchmark
/// reports beside each median); 0 when the median is 0.
inline double iqr_share(const std::vector<double>& v) {
  const double m = median(v);
  if (m == 0.0) return 0.0;
  return (percentile(v, 75.0) - percentile(v, 25.0)) / m;
}

/// num / den, 0 when den is 0 (a ratio over zero attempts is "none").
inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

}  // namespace cfbench
