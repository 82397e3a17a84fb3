// Integration tests over the experiment drivers — the same code paths the
// figure benches run, pinned at small sizes so the suite stays fast while
// still asserting the paper's headline orderings.
#include "core/experiments.h"

#include <gtest/gtest.h>

#include <iterator>

#include "obs/metrics.h"

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

/// The Fig 11 baseline: one random stream per frame.
BerMeasurement random_stream_ber(const UplinkExperimentParams& p) {
  const UplinkDecode d = decode_of(p, UplinkStreams::kRandomOne);
  return measure_uplink(p, {&d, 1})[0][0];
}

/// Fig 5's per-stream BERs: every CSI stream alone at the known start,
/// over one channel placement drawn from the seed.
std::vector<double> per_stream_ber(UplinkExperimentParams p) {
  p.channel_seed = p.seed;
  const UplinkDecode d = decode_of(p, UplinkStreams::kEachAlone);
  const auto streams = measure_uplink(p, {&d, 1})[0];
  std::vector<double> bers;
  for (const auto& m : streams) bers.push_back(m.ber);
  return bers;
}

void expect_same(const BerMeasurement& a, const BerMeasurement& b) {
  EXPECT_EQ(a.ber, b.ber);
  EXPECT_EQ(a.ber_raw, b.ber_raw);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.failed_syncs, b.failed_syncs);
  EXPECT_EQ(a.frames_delivered, b.frames_delivered);
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
  const auto random = random_stream_ber(p);
  EXPECT_LT(ours.ber_raw, random.ber_raw + 1e-9);
  EXPECT_GT(random.ber_raw, 0.02);
}

TEST(Experiments, PerStreamBerHasGoodAndBadStreams) {
  auto p = quick_params(0.15, 5);
  p.runs = 2;
  const auto bers = per_stream_ber(p);
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
  const auto m = random_stream_ber(quick_params(0.40, 4));
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
  const auto bers = per_stream_ber(p);
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
  const auto m = measure_uplink_ber(p);
  EXPECT_GE(static_cast<double>(m.frames_delivered) /
                static_cast<double>(p.runs),
            0.8);
}

TEST(Experiments, OneFrameLoopDecodesEveryVariant) {
  // Four readings of the same captures in one call equal four one-decode
  // calls field for field, and the channel is simulated once per frame
  // however many decodes read it.
  auto p = quick_params(0.30, 13);
  p.runs = 3;
  p.channel_seed = p.seed;
  UplinkExperimentParams rssi = p;
  rssi.source = reader::MeasurementSource::kRssi;
  const std::vector<UplinkDecode> decodes = {
      decode_of(p), decode_of(rssi),
      decode_of(p, UplinkStreams::kRandomOne),
      decode_of(p, UplinkStreams::kEachAlone)};

  std::vector<std::vector<BerMeasurement>> alone;
  std::vector<std::uint64_t> responses_alone;
  for (const UplinkDecode& d : decodes) {
    obs::MetricsRegistry reg;
    obs::ScopedMetrics guard(reg);
    alone.push_back(measure_uplink(p, {&d, 1})[0]);
    responses_alone.push_back(
        reg.counter("phy.channel.responses_total").value());
  }
  obs::MetricsRegistry reg;
  std::vector<std::vector<BerMeasurement>> together;
  {
    obs::ScopedMetrics guard(reg);
    together = measure_uplink(p, decodes);
  }
  const std::uint64_t responses =
      reg.counter("phy.channel.responses_total").value();
  EXPECT_GT(responses, 0u);
  for (const std::uint64_t r : responses_alone) EXPECT_EQ(r, responses);

  ASSERT_EQ(together.size(), decodes.size());
  ASSERT_EQ(together[3].size(), wifi::kNumCsiStreams);
  for (std::size_t i = 0; i < decodes.size(); ++i) {
    ASSERT_EQ(together[i].size(), alone[i].size()) << "decode " << i;
    for (std::size_t s = 0; s < together[i].size(); ++s) {
      SCOPED_TRACE("decode " + std::to_string(i) + " stream " +
                   std::to_string(s));
      expect_same(together[i][s], alone[i][s]);
    }
  }
  // The one-decode entry point is the first of them.
  expect_same(measure_uplink_ber(p), together[0][0]);
  expect_same(measure_uplink_ber(rssi), together[1][0]);
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
