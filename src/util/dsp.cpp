#include "util/dsp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace wb {

void normalize_mad(std::span<const double> x, std::span<double> out) {
  WB_REQUIRE(out.size() == x.size(), "output must cover every sample");
  WB_REQUIRE(out.data() == x.data() ||
                 !detail::spans_overlap(x.data(), x.size(), out.data(),
                                        out.size()),
             "out must fully alias x (in-place) or not overlap at all: a "
             "partial overlap makes the divide pass read elements it "
             "already overwrote");
  double mad = 0.0;
  for (double v : x) mad += std::abs(v);
  if (x.empty()) return;
  mad /= static_cast<double>(x.size());
  if (mad <= 0.0) {
    std::copy(x.begin(), x.end(), out.begin());
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] / mad;
}

std::vector<double> normalize_mad(std::span<const double> x) {
  std::vector<double> out(x.size());
  normalize_mad(x, out);
  return out;
}

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
