// Signal-processing primitives used by the reader-side decoding pipeline:
// normalisation and sample statistics.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace wb {

namespace detail {
/// True when the double ranges [a, a+an) and [b, b+bn) share any element.
/// Uses std::less for a total pointer order, so the aliasing contracts
/// below can be checked across unrelated allocations.
inline bool spans_overlap(const double* a, std::size_t an, const double* b,
                          std::size_t bn) {
  if (an == 0 || bn == 0) return false;
  const std::less<const double*> lt;
  return lt(a, b + bn) && lt(b, a + an);
}
}  // namespace detail

/// Normalise a zero-mean series so the mean absolute value becomes 1
/// (paper §3.2 step 1: divide by the average of |x|). A series of all zeros
/// is returned unchanged.
std::vector<double> normalize_mad(std::span<const double> x);

/// Span-out variant of normalize_mad. `out.size()` must equal `x.size()`;
/// `out` may fully alias `x` (in-place normalisation, same first element),
/// but a *partial* overlap is rejected: the divide pass would read
/// elements it already overwrote. Bit-identical to the allocating wrapper.
void normalize_mad(std::span<const double> x, std::span<double> out);

/// Sample mean.
double mean(std::span<const double> x);

/// Unbiased sample variance (0 for fewer than 2 samples).
double variance(std::span<const double> x);

/// Sample standard deviation.
double stddev(std::span<const double> x);

}  // namespace wb
