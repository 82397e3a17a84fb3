#include "util/dsp.h"

#include <cmath>
#include <numeric>

namespace wb {

double mean(std::span<const double> x) {
  if (x.empty()) return 0.0;
  return std::accumulate(x.begin(), x.end(), 0.0) /
         static_cast<double>(x.size());
}

double variance(std::span<const double> x) {
  if (x.size() < 2) return 0.0;
  const double m = mean(x);
  double ss = 0.0;
  for (double v : x) ss += (v - m) * (v - m);
  return ss / static_cast<double>(x.size() - 1);
}

double stddev(std::span<const double> x) { return std::sqrt(variance(x)); }

}  // namespace wb
