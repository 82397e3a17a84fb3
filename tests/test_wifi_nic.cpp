#include "wifi/nic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "util/stats.h"

namespace wb::wifi {
namespace {

phy::CsiMatrix flat_channel(double amp) {
  phy::CsiMatrix h{};
  for (auto& ant : h) {
    for (auto& c : ant) c = {amp, 0.0};
  }
  return h;
}

NicModelParams quiet_params() {
  NicModelParams p;
  p.csi_noise_rel = 0.0;
  p.csi_noise_spread = 0.0;
  p.spurious_prob = 0.0;
  p.rssi_noise_db = Db{};
  p.weak_antenna = phy::kNumAntennas;  // disabled
  p.csi_quant_step = 0.0;
  p.rssi_quant_db = Db{};
  return p;
}

TEST(Nic, CalibratedScaleMapsRmsToCsiScale) {
  NicModelParams p = quiet_params();
  sim::RngStream rng(1);
  NicModel nic(p, rng);
  const auto h = flat_channel(0.02);
  nic.calibrate(h);
  const auto rec = nic.measure(h, TimeUs{}, 1, FrameKind::kData);
  for (std::size_t a = 0; a < phy::kNumAntennas; ++a) {
    for (std::size_t s = 0; s < phy::kNumSubchannels; ++s) {
      EXPECT_NEAR(rec.csi[a][s], p.csi_scale, 1e-9);
    }
  }
}

TEST(Nic, AutoCalibratesOnFirstPacket) {
  NicModelParams p = quiet_params();
  sim::RngStream rng(2);
  NicModel nic(p, rng);
  const auto rec = nic.measure(flat_channel(0.01), TimeUs{}, 1, FrameKind::kData);
  EXPECT_NEAR(rec.csi[0][0], p.csi_scale, 1e-9);
}

TEST(Nic, CalibrationDoesNotTrackModulation) {
  // The reference is fixed at calibration; a stronger channel later shows
  // up as larger CSI, not as a re-normalised constant.
  NicModelParams p = quiet_params();
  sim::RngStream rng(3);
  NicModel nic(p, rng);
  nic.calibrate(flat_channel(0.01));
  const auto rec = nic.measure(flat_channel(0.012), TimeUs{1}, 1, FrameKind::kData);
  EXPECT_NEAR(rec.csi[0][0], p.csi_scale * 1.2, 1e-9);
}

TEST(Nic, QuantisationGrid) {
  NicModelParams p = quiet_params();
  p.csi_quant_step = 0.05;
  sim::RngStream rng(4);
  NicModel nic(p, rng);
  nic.calibrate(flat_channel(0.01));
  const auto rec = nic.measure(flat_channel(0.0101), TimeUs{}, 1, FrameKind::kData);
  const double steps = rec.csi[0][0] / 0.05;
  EXPECT_NEAR(steps, std::round(steps), 1e-9);
}

TEST(Nic, SqrtNormMatchesAbsOnceQuantised) {
  // measure() takes |z| as sqrt(norm(z)), which can differ from std::abs
  // by one ulp. Over 10^6 amplitudes across the simulator's range (up to
  // 4x the reference, at any phase) the quantised CSI must be what
  // std::abs gives. Noise and spurious events are off, so each reported
  // value is the channel entry itself, scaled and quantised.
  NicModelParams p = quiet_params();
  p.csi_quant_step = NicModelParams{}.csi_quant_step;
  ASSERT_GT(p.csi_quant_step, 0.0);
  NicModel nic(p, sim::RngStream(8));
  nic.calibrate(flat_channel(0.01));
  const double ref = nic.reference_amplitude();
  sim::RngStream draw(9);
  std::size_t compared = 0;
  std::size_t mismatches = 0;
  while (compared < 1'000'000) {
    phy::CsiMatrix h{};
    for (auto& ant : h) {
      for (auto& c : ant) {
        c = std::polar(draw.uniform(0.0, 4.0) * ref,
                       draw.uniform(-3.141592653589793, 3.141592653589793));
      }
    }
    const auto rec = nic.measure(h, TimeUs{}, 1, FrameKind::kData);
    for (std::size_t a = 0; a < phy::kNumAntennas; ++a) {
      for (std::size_t s = 0; s < phy::kNumSubchannels; ++s) {
        double amp = std::abs(h[a][s]) / ref * p.csi_scale;
        amp *= 1.0;  // no spurious event
        amp = std::round(amp / p.csi_quant_step) * p.csi_quant_step;
        if (rec.csi[a][s] != amp) ++mismatches;
        ++compared;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Nic, WeakAntennaReportsLowCsi) {
  NicModelParams p = quiet_params();
  p.weak_antenna = 2;
  p.weak_antenna_gain = 0.08;
  sim::RngStream rng(5);
  NicModel nic(p, rng);
  nic.calibrate(flat_channel(0.01));
  const auto rec = nic.measure(flat_channel(0.01), TimeUs{}, 1, FrameKind::kData);
  EXPECT_NEAR(rec.csi[2][0], rec.csi[0][0] * 0.08, 1e-9);
}

TEST(Nic, BeaconsCarryNoCsi) {
  sim::RngStream rng(6);
  NicModel nic(quiet_params(), rng);
  const auto rec = nic.measure(flat_channel(0.01), TimeUs{}, 1, FrameKind::kBeacon);
  EXPECT_FALSE(rec.has_csi);
  // RSSI is still present.
  EXPECT_GT(rec.rssi_dbm[0], -95.0);
}

TEST(Nic, RssiReflectsTotalPower) {
  sim::RngStream rng(7);
  NicModel nic(quiet_params(), rng);
  nic.calibrate(flat_channel(0.01));
  const auto weak = nic.measure(flat_channel(0.01), TimeUs{}, 1, FrameKind::kData);
  const auto strong =
      nic.measure(flat_channel(0.02), TimeUs{1}, 1, FrameKind::kData);
  // 2x amplitude = +6.02 dB.
  EXPECT_NEAR(strong.rssi_dbm[0] - weak.rssi_dbm[0], 6.02, 0.05);
}

TEST(Nic, RssiQuantisedToWholeDb) {
  NicModelParams p = quiet_params();
  p.rssi_quant_db = Db{1.0};
  sim::RngStream rng(8);
  NicModel nic(p, rng);
  const auto rec = nic.measure(flat_channel(0.013), TimeUs{}, 1, FrameKind::kData);
  for (double r : rec.rssi_dbm) {
    EXPECT_NEAR(r, std::round(r), 1e-9);
  }
}

TEST(Nic, SpuriousEventsAtConfiguredRate) {
  NicModelParams p = quiet_params();
  p.spurious_prob = 0.1;
  p.spurious_scale = 2.0;
  sim::RngStream rng(9);
  NicModel nic(p, rng);
  nic.calibrate(flat_channel(0.01));
  std::size_t spurious = 0;
  const std::size_t n = 5'000;
  for (std::size_t i = 0; i < n; ++i) {
    const auto rec =
        nic.measure(flat_channel(0.01), static_cast<TimeUs>(i), 1,
                    FrameKind::kData);
    if (std::abs(rec.csi[0][0] - p.csi_scale) > 0.01) ++spurious;
  }
  EXPECT_NEAR(static_cast<double>(spurious), 500.0, 100.0);
}

TEST(Nic, NoiseScalesWithConfiguredRel) {
  NicModelParams p = quiet_params();
  p.csi_noise_rel = 0.05;
  sim::RngStream rng(10);
  NicModel nic(p, rng);
  nic.calibrate(flat_channel(0.01));
  RunningStats stats;
  for (int i = 0; i < 3'000; ++i) {
    const auto rec = nic.measure(flat_channel(0.01),
                                 static_cast<TimeUs>(i), 1,
                                 FrameKind::kData);
    stats.push(rec.csi[0][0]);
  }
  // Complex noise with sigma 5% per axis perturbs |H| by roughly 5% of
  // scale; verify the observed jitter is in that ballpark.
  EXPECT_NEAR(stats.stddev() / p.csi_scale, 0.05, 0.02);
}

TEST(Nic, StreamIndexHelpers) {
  EXPECT_EQ(stream_index(0, 0), 0u);
  EXPECT_EQ(stream_index(1, 0), phy::kNumSubchannels);
  EXPECT_EQ(stream_antenna(stream_index(2, 7)), 2u);
  EXPECT_EQ(stream_subchannel(stream_index(2, 7)), 7u);
}

}  // namespace
}  // namespace wb::wifi
