// Per-round statistics for the benchmark driver.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (q in (0, 100]) of unsorted samples: the smallest
// sample with at least q% of the samples at or below it. 0 when empty.
inline double Percentile(std::vector<int64_t> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double exact = q / 100.0 * static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return static_cast<double>(samples[rank - 1]);
}

// a / b, or 0 when b is 0 (a layer that did no work in the measured phase).
inline double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

}  // namespace perfbench
