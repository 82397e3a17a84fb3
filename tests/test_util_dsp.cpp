#include "util/dsp.h"

#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "util/check.h"

namespace wb {
namespace {

TEST(NormalizeMad, UnitMeanAbsolute) {
  const std::vector<double> x = {1.0, -3.0, 2.0, -2.0};
  const auto y = normalize_mad(x);
  double mad = 0.0;
  for (double v : y) mad += std::abs(v);
  mad /= static_cast<double>(y.size());
  EXPECT_NEAR(mad, 1.0, 1e-12);
}

TEST(NormalizeMad, AllZerosUnchanged) {
  const std::vector<double> x = {0.0, 0.0, 0.0};
  const auto y = normalize_mad(x);
  for (double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(NormalizeMad, PreservesSignPattern) {
  const std::vector<double> x = {5.0, -1.0, 0.5};
  const auto y = normalize_mad(x);
  EXPECT_GT(y[0], 0.0);
  EXPECT_LT(y[1], 0.0);
  EXPECT_GT(y[2], 0.0);
}

TEST(Dsp, MeanVarianceStddev) {
  const std::vector<double> x = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(x), 5.0);
  EXPECT_NEAR(variance(x), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(x), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Dsp, VarianceOfSingletonIsZero) {
  const std::vector<double> x = {42.0};
  EXPECT_DOUBLE_EQ(variance(x), 0.0);
}

TEST(SpanVariants, BitIdenticalToAllocatingWrappers) {
  // The span-out overload promises the exact same arithmetic in the same
  // order as the allocating wrapper (DESIGN.md §10) — compare EXACTLY.
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) {
    xs.push_back(std::sin(0.37 * i) * (1.0 + 0.01 * i));
  }

  const auto nm_ref = normalize_mad(xs);
  std::vector<double> nm_out(xs.size(), -99.0);
  normalize_mad(xs, nm_out);
  EXPECT_EQ(nm_ref, nm_out);
}

TEST(SpanVariants, NormalizeMadMayAliasItsInput) {
  std::vector<double> xs = {1.0, -2.0, 3.0, -4.0};
  const auto ref = normalize_mad(xs);
  normalize_mad(xs, xs);  // in place
  EXPECT_EQ(ref, xs);
}

TEST(SpanVariants, AliasingInputAndOutputIsRejected) {
  // The span-out normalize_mad documents its aliasing contract; under the
  // throwing policy a violation must surface as ContractViolation, not as
  // silently wrong numbers.
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  std::vector<double> xs(16, 1.0);

  // normalize_mad: full alias is fine (tested above), partial is not.
  EXPECT_THROW(
      normalize_mad(std::span<const double>(xs.data(), 8),
                    std::span<double>(xs.data() + 4, 8)),
      ContractViolation);
}

// -- stream-batched rows kernels (DESIGN.md §15) ------------------------

/// Builds an n_rows x stride matrix whose columns are distinct,
/// sign-varying series; the last column is all zeros like the padding
/// lanes the conditioning path appends.
std::vector<double> make_rows(std::size_t n_rows, std::size_t stride) {
  std::vector<double> rows(n_rows * stride);
  for (std::size_t r = 0; r < n_rows; ++r) {
    for (std::size_t c = 0; c + 1 < stride; ++c) {
      rows[r * stride + c] =
          std::sin(0.31 * static_cast<double>(r * stride + c)) *
          (1.0 + 0.1 * static_cast<double>(c));
    }
    rows[r * stride + stride - 1] = 0.0;  // padding column
  }
  return rows;
}

TEST(RowsKernels, MadRowsMatchesPerColumnScalar) {
  // Exercise row counts around the pack width (1, 5, 37) so both the
  // pack main loop and the scalar remainder are covered.
  const std::size_t stride = 8;  // multiple of simd::kLanes
  for (const std::size_t n_rows : {1u, 5u, 37u}) {
    const auto rows = make_rows(n_rows, stride);
    std::vector<double> mads(stride, -99.0);
    mad_rows(rows, stride, n_rows, mads);
    for (std::size_t c = 0; c < stride; ++c) {
      // Replay the scalar normalize_mad divisor chain on the column.
      double acc = 0.0;
      for (std::size_t r = 0; r < n_rows; ++r) {
        acc += std::abs(rows[r * stride + c]);
      }
      const double mad = acc / static_cast<double>(n_rows);
      EXPECT_EQ(mads[c], mad <= 0.0 ? 1.0 : mad) << "col " << c;
    }
    // The all-zero padding column must come back with the safe divisor.
    EXPECT_EQ(mads[stride - 1], 1.0);
  }
}

TEST(RowsKernels, ContractViolationsAreRejected) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  const std::size_t stride = 8, n_rows = 4;
  auto rows = make_rows(n_rows, stride);
  std::vector<double> mads(stride);

  // Stride not a multiple of the pack width.
  EXPECT_THROW(mad_rows(rows, 7, n_rows, mads), ContractViolation);
  // Matrix size inconsistent with stride * n_rows.
  EXPECT_THROW(mad_rows(std::span<const double>(rows.data(), 17), stride, 2,
                        mads),
               ContractViolation);
  // Wrong divisor-vector size.
  std::vector<double> short_mads(stride - 1);
  EXPECT_THROW(mad_rows(rows, stride, n_rows, short_mads), ContractViolation);
  // mad output aliasing the matrix.
  EXPECT_THROW(mad_rows(rows, stride, n_rows,
                        std::span<double>(rows.data(), stride)),
               ContractViolation);
}

TEST(RowsKernels, EmptyMatrixYieldsSafeDivisors) {
  std::vector<double> mads(8, -99.0);
  mad_rows(std::span<const double>(), 8, 0, mads);
  // Every column of an empty matrix is degenerate — the safe divisor,
  // never stale or zero values a caller could divide by.
  for (double v : mads) EXPECT_EQ(v, 1.0);
}

}  // namespace
}  // namespace wb
