#include "util/dsp.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace wb {
namespace {

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

}  // namespace
}  // namespace wb
