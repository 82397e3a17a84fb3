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

}  // namespace
}  // namespace wb
