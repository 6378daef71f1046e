// Small order statistics for the benchmark's own samples.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// Linear-interpolated quantile of `values` (q in [0, 1]); +inf samples are
// allowed and sort last, so a failed request counted as +inf pushes the
// tail past any finite limit. Empty input yields NaN.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) return values[hi];
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// Samples strictly beyond quantile q of n samples: how much evidence a
// reported percentile rests on.
inline int64_t SamplesBeyond(int64_t n, double q) {
  return static_cast<int64_t>(std::floor(static_cast<double>(n) * (1.0 - q)));
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
