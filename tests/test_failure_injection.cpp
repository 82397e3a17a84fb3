// Failure-injection tests: the system under hostile or degenerate
// conditions must fail *cleanly* (no crashes, no false successes), and
// recover when conditions improve.
#include <gtest/gtest.h>

#include <cmath>

#include "core/experiments.h"
#include "core/inventory.h"
#include "core/frame.h"
#include "core/system.h"
#include "reader/conditioning.h"
#include "reader/decode_workspace.h"
#include "reader/uplink_decoder.h"
#include "wifi/mac.h"
#include "wifi/nic.h"

namespace wb {
namespace {

TEST(FailureInjection, AllAntennasWeak) {
  // Every antenna crippled: decoding still works at close range because
  // conditioning normalises per stream (relative modulation survives a
  // flat gain), which is exactly why the paper could keep its bad antenna
  // in the pipeline (§7.1).
  core::UplinkExperimentParams p;
  p.tag_reader_distance_m = Meters{0.05};
  p.runs = 3;
  p.payload_bits = 24;
  p.nic.weak_antenna = 0;  // one designated weak antenna...
  p.nic.weak_antenna_gain = 0.01;
  p.seed = 1;
  const auto m = core::measure_uplink_ber(p);
  EXPECT_LT(m.ber_raw, 0.05);
}

TEST(FailureInjection, ExtremeSpuriousNic) {
  // A quarter of all packets carry spurious snapshots: close-range
  // decoding should degrade but not collapse (majority voting).
  core::UplinkExperimentParams p;
  p.tag_reader_distance_m = Meters{0.05};
  p.runs = 3;
  p.payload_bits = 24;
  p.nic.spurious_prob = 0.25;
  p.seed = 2;
  const auto m = core::measure_uplink_ber(p);
  EXPECT_LT(m.ber_raw, 0.1);
}

TEST(FailureInjection, CrushingNoiseFailsCleanly) {
  core::UplinkExperimentParams p;
  p.tag_reader_distance_m = Meters{0.05};
  p.runs = 2;
  p.payload_bits = 24;
  p.nic.csi_noise_rel = 5.0;  // SNR << 1 everywhere
  p.seed = 3;
  const auto m = core::measure_uplink_ber(p);
  // Whatever happens, the answer is garbage-rate BER, not a crash or a
  // fake clean decode.
  EXPECT_GT(m.ber_raw, 0.2);
}

TEST(FailureInjection, DecoderHandlesSinglePacketTrace) {
  wifi::CaptureTrace trace(1);
  trace[0].timestamp_us = TimeUs{};
  reader::UplinkDecoderConfig cfg;
  cfg.payload_bits = 8;
  cfg.bit_duration_us = TimeUs{1'000};
  reader::UplinkDecoder dec(cfg);
  const auto res = dec.decode(trace);
  EXPECT_FALSE(res.found);
}

TEST(FailureInjection, DecoderHandlesAllIdenticalMeasurements) {
  // A frozen NIC reporting constants: conditioning yields zeros, sync
  // finds nothing.
  wifi::CaptureTrace trace;
  for (int i = 0; i < 2'000; ++i) {
    wifi::CaptureRecord r;
    r.timestamp_us = TimeUs{i * 500};
    for (auto& ant : r.csi) ant.fill(7.0);
    r.rssi_dbm.fill(-40.0);
    trace.push_back(r);
  }
  reader::UplinkDecoderConfig cfg;
  cfg.payload_bits = 16;
  cfg.bit_duration_us = TimeUs{5'000};
  cfg.sync_threshold = 0.1;
  reader::UplinkDecoder dec(cfg);
  EXPECT_FALSE(dec.decode(trace).found);
}

TEST(FailureInjection, MacRetryLimitDropsFrames) {
  // Guarantee repeated collisions: two stations whose backoffs always
  // collide is not forceable deterministically, so use many stations at
  // tiny CW pressure and verify drops are accounted, never lost.
  wifi::DcfMac mac{sim::RngStream(4)};
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(mac.add_station());
    mac.make_saturated(ids.back(), 1'500, 6.0);
  }
  mac.run_until(2 * kMicrosPerSec);
  std::uint64_t delivered = 0, collisions = 0;
  for (auto id : ids) {
    delivered += mac.stats(id).delivered;
    collisions += mac.stats(id).collisions;
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(collisions, 0u);
}

TEST(FailureInjection, SystemSurvivesZeroHelperTraffic) {
  core::SystemConfig cfg;
  cfg.helper_pps = 1.0;  // effectively dead network
  cfg.max_query_attempts = 1;
  cfg.seed = 5;
  core::WiFiBackscatterSystem sys(cfg);
  const auto out = sys.receive_uplink(random_bits(8, 1), 100.0);
  EXPECT_FALSE(out.delivered);  // nothing to modulate: no false success
}

TEST(FailureInjection, ParseRejectsTruncatedQueries) {
  for (std::size_t len : {0u, 1u, 55u, 57u, 100u}) {
    EXPECT_FALSE(core::Query::from_bits(BitVec(len, 1)).has_value()) << len;
  }
}

TEST(FailureInjection, DownlinkRejectsMassiveCorruption) {
  // Random 64-bit payloads: the CRC8 must reject ~255/256.
  std::size_t accepted = 0;
  for (std::uint64_t seed = 0; seed < 2'000; ++seed) {
    if (core::parse_downlink_payload(random_bits(64, seed))) ++accepted;
  }
  EXPECT_LT(accepted, 20u);
}

TEST(FailureInjection, ConditioningSurvivesIdenticalTimestamps) {
  // Several packets sharing one timestamp (bursted delivery reports).
  const std::vector<TimeUs> ts = {TimeUs{100}, TimeUs{100}, TimeUs{100},
                                  TimeUs{200}, TimeUs{200}, TimeUs{300}};
  wifi::CaptureTrace trace;
  for (std::size_t k = 0; k < ts.size(); ++k) {
    wifi::CaptureRecord rec;
    rec.timestamp_us = ts[k];
    for (auto& ant : rec.csi) ant.fill(1.0 + static_cast<double>(k));
    rec.rssi_dbm.fill(-40.0 + static_cast<double>(k));
    trace.push_back(rec);
  }
  reader::DecodeWorkspace ws;
  reader::ConditionedTrace ct;
  for (const auto source :
       {reader::MeasurementSource::kCsi, reader::MeasurementSource::kRssi}) {
    reader::condition_into(trace, source, TimeUs{1'000}, ws, ct);
    EXPECT_EQ(ct.num_packets(), ts.size());
    for (double v : ct.rows) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST(FailureInjection, InventoryWithDuplicateAddresses) {
  // Two tags wrongly programmed with the same address: the protocol must
  // terminate (it cannot tell them apart — at most one is "identified").
  core::InventoryConfig cfg;
  cfg.seed = 6;
  cfg.max_rounds = 6;
  std::vector<core::InventoryTag> tags;
  tags.push_back({0x1111, {{0.10, 0.0}, {}}});
  tags.push_back({0x1111, {{0.20, 0.1}, {}}});
  const auto res = core::run_inventory(tags, cfg);
  EXPECT_LE(res.rounds.size(), 6u);
  for (std::size_t i = 1; i < res.identified.size(); ++i) {
    EXPECT_EQ(res.identified[i], 0x1111);
  }
}

}  // namespace
}  // namespace wb
