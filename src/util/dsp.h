// Sample statistics used by the reader-side decoding pipeline.
#pragma once

#include <span>

namespace wb {

/// Sample mean.
double mean(std::span<const double> x);

/// Unbiased sample variance (0 for fewer than 2 samples).
double variance(std::span<const double> x);

/// Sample standard deviation.
double stddev(std::span<const double> x);

}  // namespace wb
