// Order statistics for the benchmark's timings.
//
// A tail percentile is reported only when at least kTailSamples samples
// lie beyond it: a "p99" of 200 samples would be the second-largest
// sample, not a tail.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kTailSamples = 10;

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile q in [0, 1] (the smallest sample when q = 0).
inline double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size()) - 1e-9));
  const std::size_t r = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (r - 1), v.end());
  return v[r - 1];
}

/// Nearest-rank percentile q in (0, 1), or nullopt when fewer than
/// kTailSamples samples lie strictly beyond its rank.
inline std::optional<double> tail_percentile(const std::vector<double>& v,
                                             double q) {
  const std::size_t n = v.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  if (n == 0 || n - std::clamp<std::size_t>(rank, 1, n) < kTailSamples)
    return std::nullopt;
  return nearest_rank(v, q);
}

/// The highest percentile at or below q that still has kTailSamples
/// samples beyond it. Fewer than four times that many samples give no
/// tail at all, so the median stands in.
inline double tail_or_median(const std::vector<double>& v, double q) {
  if (auto p = tail_percentile(v, q)) return *p;
  if (v.size() < 4 * kTailSamples) return median(v);
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  return s[s.size() - kTailSamples - 1];
}

} // namespace perfbench
