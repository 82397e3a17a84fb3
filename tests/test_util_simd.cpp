#include "util/simd.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace wb::simd {
namespace {

TEST(Simd, LaneOrderIsIndexOrder) {
  const double src[4] = {1.5, -2.25, 3.0, 4.75};
  const auto v = dpack::load(src);
  for (std::size_t i = 0; i < dpack::size(); ++i) {
    EXPECT_DOUBLE_EQ(v.lane[i], src[i]) << i;
  }
  double dst[4] = {};
  v.store(dst);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(dst[i], src[i]) << i;
}

TEST(Simd, BroadcastAndZero) {
  const auto b = dpack::broadcast(7.25);
  const auto z = dpack::zero();
  for (std::size_t i = 0; i < dpack::size(); ++i) {
    EXPECT_DOUBLE_EQ(b.lane[i], 7.25);
    EXPECT_DOUBLE_EQ(z.lane[i], 0.0);
    EXPECT_FALSE(std::signbit(z.lane[i]));  // positive zero
  }
}

TEST(Simd, ElementwiseOpsMatchScalarExactly) {
  // Each lane op must be the one IEEE-754 double operation the scalar
  // expression names — compare with EXPECT_EQ on the bit-exact result,
  // not EXPECT_NEAR. Inputs chosen so the results are inexact (rounding
  // happens) and a reassociated or fused implementation would differ.
  const double a[4] = {0.1, -0.2, 1e16, 3.7};
  const double b[4] = {0.3, 0.7, 1.0, -1.9};
  const auto va = dpack::load(a);
  const auto vb = dpack::load(b);
  const auto sum = va + vb;
  const auto dif = va - vb;
  const auto prd = va * vb;
  const auto quo = va / vb;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sum.lane[i], a[i] + b[i]) << i;
    EXPECT_EQ(dif.lane[i], a[i] - b[i]) << i;
    EXPECT_EQ(prd.lane[i], a[i] * b[i]) << i;
    EXPECT_EQ(quo.lane[i], a[i] / b[i]) << i;
  }
}

TEST(Simd, MulAddRoundsTheProduct) {
  // a = 1 + 2^-52, b = 1 - 2^-52: the exact product is 1 - 2^-104, which
  // rounds to exactly 1.0 in double. With c = -1 a rounded product gives
  // exactly 0.0; a hardware FMA would keep the infinite-precision product
  // and return -2^-104. mul_add promises the rounded (unfused) answer.
  const double ulp = std::ldexp(1.0, -52);
  const auto a = dpack::broadcast(1.0 + ulp);
  const auto b = dpack::broadcast(1.0 - ulp);
  const auto c = dpack::broadcast(-1.0);
  const auto r = dpack::mul_add(a, b, c);
  for (std::size_t i = 0; i < dpack::size(); ++i) {
    EXPECT_EQ(r.lane[i], 0.0) << "product was not rounded before the add";
  }
}

TEST(Simd, HsumReducesInAscendingLaneOrder) {
  // 1e16 + 1.0 rounds to 1e16, so the ascending-order sum
  // ((1e16 + 1) + 1) + -1e16 is exactly 0.0; summing the middle lanes
  // first (a pairwise/tree reduction) would give 2.0.
  const double src[4] = {1e16, 1.0, 1.0, -1e16};
  EXPECT_EQ(dpack::load(src).hsum(), ((1e16 + 1.0) + 1.0) + -1e16);
  EXPECT_EQ(dpack::load(src).hsum(), 0.0);
}

TEST(Simd, MinMaxClampMatchStdSemantics) {
  const double a[4] = {1.0, -2.0, 0.0, 5.0};
  const double b[4] = {3.0, -7.0, -0.0, 5.0};
  const auto vmin = dpack::min(dpack::load(a), dpack::load(b));
  const auto vmax = dpack::max(dpack::load(a), dpack::load(b));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(vmin.lane[i], std::min(a[i], b[i])) << i;
    EXPECT_EQ(vmax.lane[i], std::max(a[i], b[i])) << i;
  }
  // std::min/max return the FIRST argument on ties — ±0.0 compare equal,
  // so min(0.0, -0.0) is +0.0 and max(0.0, -0.0) is +0.0 too.
  EXPECT_FALSE(std::signbit(vmin.lane[2]));
  EXPECT_FALSE(std::signbit(vmax.lane[2]));

  const double x[4] = {-5.0, 0.5, 9.0, 2.0};
  const auto cl = dpack::clamp(dpack::load(x), dpack::broadcast(0.0),
                               dpack::broadcast(2.0));
  const double want[4] = {0.0, 0.5, 2.0, 2.0};
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(cl.lane[i], want[i]) << i;
}

TEST(Simd, AbsIsTheScalarComparisonChain) {
  // abs is pinned to `v < 0 ? -v : v`, NOT std::abs: -0.0 compares equal
  // to zero and comes back unchanged. The kernels only sum abs results,
  // where -0.0 and +0.0 contribute identically.
  const double src[4] = {-3.5, 0.0, -0.0, 2.25};
  const auto r = dpack::abs(dpack::load(src));
  EXPECT_EQ(r.lane[0], 3.5);
  EXPECT_EQ(r.lane[1], 0.0);
  EXPECT_EQ(r.lane[2], 0.0);  // ±0.0 compare equal...
  EXPECT_TRUE(std::signbit(r.lane[2]));  // ...but the sign is preserved
  EXPECT_EQ(r.lane[3], 2.25);
  EXPECT_EQ(1.0 + r.lane[2], 1.0 + std::abs(-0.0));  // sums can't tell
}

TEST(Simd, LessIsTheScalarComparisonAsOneOrZero) {
  // less(a, b) is `a < b ? 1 : 0` per lane: ties, ±0.0 and NaN are not
  // less, so summing the lanes counts exactly the strict comparisons.
  const double a[4] = {1.0, 2.0, -0.0, std::nan("")};
  const double b[4] = {2.0, 2.0, 0.0, 1.0};
  const auto r = dpack::less(dpack::load(a), dpack::load(b));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r.lane[i], a[i] < b[i] ? 1.0 : 0.0) << i;
  }
  EXPECT_EQ(r.hsum(), 1.0);
  using p3 = pack<double, 3>;
  const auto f = p3::less(p3::load(a), p3::load(b));
  EXPECT_EQ(f.lane[0], 1.0);
  EXPECT_EQ(f.lane[1], 0.0);
  EXPECT_EQ(f.lane[2], 0.0);
}

TEST(Simd, CompoundAssignmentMatchesBinaryOps) {
  const double a[4] = {0.1, 0.2, 0.3, 0.4};
  const double b[4] = {0.7, 0.9, 1.1, 1.3};
  auto v = dpack::load(a);
  v += dpack::load(b);
  v *= dpack::load(b);
  v -= dpack::load(a);
  v /= dpack::load(b);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(v.lane[i], (((a[i] + b[i]) * b[i]) - a[i]) / b[i]) << i;
  }
}

TEST(Simd, NonPowerOfTwoWidthUsesArrayFallback) {
  // The native vector-extension storage only exists for power-of-two
  // packs; a pack<double, 3> must still work (array fallback) with the
  // same lane semantics.
  using p3 = pack<double, 3>;
  static_assert(!p3::kNative);
  const double src[3] = {1.0, -2.0, 4.0};
  const auto v = p3::load(src);
  const auto r = v * v + p3::broadcast(1.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.lane[i], src[i] * src[i] + 1.0) << i;
  }
  EXPECT_EQ(v.hsum(), (1.0 + -2.0) + 4.0);
}

TEST(Simd, KernelLoopMatchesScalarReference) {
  // A miniature conditioning-style kernel (subtract, divide, abs) over a
  // remainder-bearing length: pack main loop + scalar tail must equal the
  // plain scalar loop bit for bit.
  const std::size_t n = 37;  // 9 full packs + 1 remainder lane
  std::vector<double> x(n), m(n), d(n), want(n), got(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.37 * static_cast<double>(i)) * 3.0;
    m[i] = 0.25 * static_cast<double>(i % 7);
    d[i] = 1.0 + 0.125 * static_cast<double>(i % 5);
    want[i] = std::abs((x[i] - m[i]) / d[i]);
  }
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const auto r = dpack::abs(
        (dpack::load(&x[i]) - dpack::load(&m[i])) / dpack::load(&d[i]));
    r.store(&got[i]);
  }
  for (; i < n; ++i) got[i] = std::abs((x[i] - m[i]) / d[i]);
  EXPECT_EQ(want, got);
}

}  // namespace
}  // namespace wb::simd
