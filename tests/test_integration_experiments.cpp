// Integration tests over the experiment drivers — the same code paths the
// figure benches run, pinned at small sizes so the suite stays fast while
// still asserting the paper's headline orderings.
#include "core/experiments.h"

#include <gtest/gtest.h>

#include <iterator>

namespace wb::core {
namespace {

UplinkExperimentParams quick_params(double distance_m, std::uint64_t seed) {
  UplinkExperimentParams p;
  p.tag_reader_distance_m = Meters{distance_m};
  p.packets_per_bit = 30.0;
  p.payload_bits = 40;
  p.runs = 4;
  p.seed = seed;
  return p;
}

TEST(Experiments, CloseRangeDecodesCleanly) {
  const auto m = measure_uplink_ber(quick_params(0.05, 1));
  EXPECT_EQ(m.failed_syncs, 0u);
  EXPECT_LT(m.ber_raw, 0.02);
}

TEST(Experiments, BerRisesWithDistance) {
  // Average over several seeds to defeat placement luck.
  double close_total = 0.0, far_total = 0.0;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    close_total += measure_uplink_ber(quick_params(0.10, s)).ber_raw;
    far_total += measure_uplink_ber(quick_params(0.90, s)).ber_raw;
  }
  EXPECT_LT(close_total, far_total);
  EXPECT_GT(far_total, 0.01);
}

TEST(Experiments, CsiOutperformsRssiAtMidRange) {
  double csi_total = 0.0, rssi_total = 0.0;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    auto p = quick_params(0.35, s);
    csi_total += measure_uplink_ber(p).ber_raw;
    p.source = reader::MeasurementSource::kRssi;
    rssi_total += measure_uplink_ber(p).ber_raw;
  }
  EXPECT_LT(csi_total, rssi_total);
}

TEST(Experiments, CombiningBeatsRandomStream) {
  auto p = quick_params(0.40, 4);
  const auto ours = measure_uplink_ber(p);
  const auto random = measure_uplink_ber_random_stream(p);
  EXPECT_LT(ours.ber_raw, random.ber_raw + 1e-9);
  EXPECT_GT(random.ber_raw, 0.02);
}

TEST(Experiments, PerStreamBerHasGoodAndBadStreams) {
  auto p = quick_params(0.15, 5);
  p.runs = 2;
  const auto bers = measure_per_stream_ber(p);
  ASSERT_EQ(bers.size(), wifi::kNumCsiStreams);
  std::size_t good = 0, bad = 0;
  for (double b : bers) {
    if (b < 1e-2) ++good;
    if (b > 0.2) ++bad;
  }
  EXPECT_GT(good, 0u);
  EXPECT_GT(bad, 0u);  // the weak antenna's streams at least
}

TEST(Experiments, RandomStreamBaselinePinned) {
  // Exact counts at one point: the Fig 11 baseline is a one-stream decode
  // of the shared frame simulator's trace, with the stream drawn from the
  // frame seed's "random-stream" fork.
  const auto m = measure_uplink_ber_random_stream(quick_params(0.40, 4));
  EXPECT_EQ(m.bits, 160u);
  EXPECT_EQ(m.errors, 43u);
  EXPECT_EQ(m.failed_syncs, 0u);
}

TEST(Experiments, PerStreamBerPinned) {
  // Exact per-stream BER at one point (Fig 5): 2 runs x 40 bits per
  // stream, known frame start, one channel placement.
  auto p = quick_params(0.15, 5);
  p.runs = 2;
  const std::size_t errors[] = {
      42, 39, 43, 43, 30, 22, 23, 32, 20, 24, 34, 44, 42, 11, 22,
      20, 26, 7,  17, 10, 14, 3,  0,  2,  0,  0,  0,  0,  0,  1,
      27, 8,  0,  13, 3,  4,  10, 0,  5,  3,  0,  1,  0,  2,  3,
      0,  1,  3,  0,  0,  0,  0,  0,  1,  7,  6,  1,  0,  0,  0,
      0,  0,  3,  0,  3,  1,  0,  1,  0,  0,  1,  4,  0,  5,  6,
      3,  10, 20, 2,  9,  0,  5,  0,  0,  1,  6,  1,  4,  0,  0};
  const auto bers = measure_per_stream_ber(p);
  ASSERT_EQ(bers.size(), std::size(errors));
  for (std::size_t s = 0; s < bers.size(); ++s) {
    // BerCounter::ber_floored over 80 bits.
    const double want = errors[s] == 0
                            ? 0.5 / 80.0
                            : static_cast<double>(errors[s]) / 80.0;
    EXPECT_EQ(bers[s], want) << "stream " << s;
  }
}

TEST(Experiments, PacketDeliveryHighAtCloseRange) {
  auto p = quick_params(0.05, 6);
  p.payload_bits = 24;
  p.runs = 6;
  EXPECT_GE(measure_packet_delivery(p), 0.8);
}

TEST(Experiments, AchievableRateGrowsWithHelperRate) {
  UplinkExperimentParams p = quick_params(0.05, 7);
  p.payload_bits = 48;
  p.runs = 3;
  p.helper_pps = 400.0;
  const double slow = achievable_bit_rate(p);
  p.helper_pps = 3'000.0;
  const double fast = achievable_bit_rate(p);
  EXPECT_GE(fast, slow);
  EXPECT_GE(fast, 500.0);
  EXPECT_GT(slow, 0.0);
}

TEST(Experiments, CodedDecoderReachesBeyondPlainRange) {
  // At 1.2 m the plain decoder is dead (Fig 6) but a 20-chip code works
  // (Fig 20).
  CodedExperimentParams coded;
  coded.tag_reader_distance_m = Meters{1.2};
  coded.code_length = 20;
  coded.packets_per_chip = 4.0;
  coded.payload_bits = 12;
  coded.runs = 3;
  coded.seed = 8;
  const auto coded_m = measure_coded_uplink_ber(coded);
  EXPECT_LT(coded_m.ber_raw, 0.05);

  auto plain = quick_params(1.2, 8);
  plain.runs = 3;
  const auto plain_m = measure_uplink_ber(plain);
  EXPECT_GT(plain_m.ber_raw, coded_m.ber_raw);
}

TEST(Experiments, LongerCodesExtendRange) {
  CodedExperimentParams p;
  p.tag_reader_distance_m = Meters{2.0};
  p.packets_per_chip = 2.0;
  p.payload_bits = 12;
  p.runs = 3;
  p.seed = 9;
  p.code_length = 4;
  const auto short_code = measure_coded_uplink_ber(p);
  p.code_length = 64;
  const auto long_code = measure_coded_uplink_ber(p);
  EXPECT_LE(long_code.ber_raw, short_code.ber_raw + 1e-9);
}

TEST(Experiments, RequiredLengthMonotoneInterface) {
  CodedExperimentParams p;
  p.tag_reader_distance_m = Meters{0.6};
  p.packets_per_chip = 2.0;
  p.payload_bits = 12;
  p.runs = 2;
  p.seed = 10;
  const auto l = required_correlation_length(p, {4, 16, 64});
  EXPECT_NE(l, 0u);  // 0.6 m is inside even the plain decoder's range
}

TEST(Experiments, BeaconOnlyUplinkWorks) {
  UplinkExperimentParams p;
  p.tag_reader_distance_m = Meters{0.05};
  p.helper_pps = 50.0;  // beacons/s
  p.packets_per_bit = 2.5;
  p.beacons_only = true;
  p.source = reader::MeasurementSource::kRssi;
  p.payload_bits = 24;
  p.runs = 3;
  p.seed = 11;
  const auto m = measure_uplink_ber(p);
  EXPECT_LT(m.ber_raw, 0.05);
}

TEST(Experiments, GeometryOverridesAreUsed) {
  // Putting the helper behind a thick wall must reduce absolute signal
  // but leave relative decoding workable (Fig 14's point).
  phy::FloorPlan plan;
  plan.add_wall(phy::Wall{{1.5, -5.0}, {1.5, 5.0}, Db{8.0}});
  UplinkExperimentParams p = quick_params(0.05, 12);
  p.helper_pos = phy::Vec2{4.0, 0.0};
  p.reader_pos = phy::Vec2{0.0, 0.0};
  p.tag_pos = phy::Vec2{0.05, 0.0};
  p.plan = &plan;
  p.payload_bits = 24;
  const auto m = measure_uplink_ber(p);
  EXPECT_EQ(m.failed_syncs, 0u);
  EXPECT_LT(m.ber_raw, 0.05);
}

}  // namespace
}  // namespace wb::core
