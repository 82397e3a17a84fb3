#include "util/dsp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"
#include "util/simd.h"

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

WB_SIMD_MULTIVERSION
void mad_rows(std::span<const double> rows, std::size_t stride,
              std::size_t n_rows, std::span<double> mad_out) {
  WB_REQUIRE(stride > 0 && stride % simd::kLanes == 0,
             "row stride must be a positive multiple of the pack width");
  WB_REQUIRE(rows.size() == n_rows * stride,
             "rows must hold n_rows rows of stride lanes");
  WB_REQUIRE(mad_out.size() == stride,
             "mad output needs one accumulator per lane column");
  WB_REQUIRE(!detail::spans_overlap(mad_out.data(), mad_out.size(),
                                    rows.data(), rows.size()),
             "mad output must not alias the input rows");
  if (n_rows == 0) {
    // Every column of an empty matrix is degenerate: the safe divisor.
    for (double& m : mad_out) m = 1.0;
    return;
  }
  using P = simd::dpack;
  // Per-column mean |x|, accumulated in row (= time) order so each column
  // replays the scalar normalize_mad accumulation chain.
  for (double& m : mad_out) m = 0.0;
  for (std::size_t k = 0; k < n_rows; ++k) {
    const double* row = rows.data() + k * stride;
    for (std::size_t g = 0; g < stride; g += simd::kLanes) {
      (P::load(mad_out.data() + g) + P::abs(P::load(row + g)))
          .store(mad_out.data() + g);
    }
  }
  // Degenerate columns (mad <= 0) divide by 1.0 — an exact copy, which is
  // also what keeps all-zero padding columns untouched.
  const double n = static_cast<double>(n_rows);
  for (std::size_t c = 0; c < stride; ++c) {
    const double mad = mad_out[c] / n;
    mad_out[c] = mad <= 0.0 ? 1.0 : mad;
  }
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
