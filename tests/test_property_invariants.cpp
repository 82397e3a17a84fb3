// Property-style sweeps across module boundaries: randomised inputs,
// structural invariants that must hold for every draw.
#include <gtest/gtest.h>

#include "core/frame.h"
#include "core/uplink_sim.h"
#include "reader/conditioning.h"
#include "reader/downlink_encoder.h"
#include "reader/uplink_decoder.h"
#include "tag/modulator.h"
#include "trace_columns.h"
#include "util/crc.h"
#include "wifi/traffic.h"

namespace wb {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededProperty, FrameLayerRoundtripsAnyPayload) {
  const std::uint64_t seed = GetParam();
  const std::size_t len = 8 + (seed * 13) % 64;
  const BitVec data = random_bits(len, seed);
  const auto frame = core::build_uplink_frame(data);
  const BitVec payload(
      frame.begin() + static_cast<long>(core::uplink_preamble().size()),
      frame.end());
  const auto parsed = core::parse_uplink_payload(payload, len);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, data);
}

TEST_P(SeededProperty, FrameLayerRejectsAnySingleFlip) {
  const std::uint64_t seed = GetParam();
  const BitVec data = random_bits(32, seed);
  const auto frame = core::build_uplink_frame(data);
  BitVec payload(
      frame.begin() + static_cast<long>(core::uplink_preamble().size()),
      frame.end());
  sim::RngStream rng(seed);
  payload[rng.uniform_int(payload.size())] ^= 1;
  EXPECT_FALSE(core::parse_uplink_payload(payload, 32).has_value());
}

TEST_P(SeededProperty, ModulatorChipCountInvariant) {
  const std::uint64_t seed = GetParam();
  sim::RngStream rng(seed);
  const std::size_t nbits = 1 + rng.uniform_int(50);
  const std::size_t code_len = 2 + 2 * rng.uniform_int(40);
  const BitVec frame = random_bits(nbits, seed);
  const auto codes = make_orthogonal_pair(code_len);
  tag::Modulator plain(frame, TimeUs{100}, TimeUs{});
  tag::Modulator coded(frame, codes, TimeUs{100}, TimeUs{});
  EXPECT_EQ(plain.chip_sequence().size(), nbits);
  EXPECT_EQ(coded.chip_sequence().size(), nbits * code_len);
  EXPECT_EQ(coded.duration(),
            plain.duration() * static_cast<std::int64_t>(code_len));
}

TEST_P(SeededProperty, ModulatorStateMatchesChipTable) {
  const std::uint64_t seed = GetParam();
  const BitVec frame = random_bits(20, seed);
  tag::Modulator mod(frame, TimeUs{250}, TimeUs{5'000});
  for (std::size_t c = 0; c < frame.size(); ++c) {
    const TimeUs mid = TimeUs{5'000} +
                       TimeUs{250} * static_cast<std::int64_t>(c) +
                       TimeUs{125};
    EXPECT_EQ(mod.state_at(mid), frame[c] != 0);
  }
}

TEST_P(SeededProperty, ConditioningPreservesShape) {
  const std::uint64_t seed = GetParam();
  sim::RngStream rng(seed);
  wifi::CaptureTrace trace;
  const std::size_t n = 20 + rng.uniform_int(100);
  TimeUs t{0};
  for (std::size_t i = 0; i < n; ++i) {
    t += TimeUs{static_cast<std::int64_t>(200 + rng.uniform_int(2'000))};
    wifi::CaptureRecord r;
    r.timestamp_us = t;
    for (auto& ant : r.csi) {
      for (auto& v : ant) v = rng.uniform(1.0, 10.0);
    }
    r.rssi_dbm.fill(rng.uniform(-60.0, -30.0));
    trace.push_back(r);
  }
  const auto ct =
      reader::condition(trace, reader::MeasurementSource::kCsi,
                        TimeUs{50'000});
  ASSERT_EQ(ct.num_packets(), n);
  ASSERT_EQ(ct.num_streams(), wifi::kNumCsiStreams);
  // Timestamps preserved and sorted.
  for (std::size_t i = 1; i < ct.timestamps.size(); ++i) {
    EXPECT_GE(ct.timestamps[i], ct.timestamps[i - 1]);
  }
  // Every stream zero-mean-ish after conditioning.
  for (const auto& s : reader::test::columns(ct)) {
    double mean = 0.0;
    for (double v : s) mean += v;
    mean /= static_cast<double>(s.size());
    EXPECT_LT(std::abs(mean), 0.6);
  }
}

TEST_P(SeededProperty, DecoderOutputLengthAlwaysPayloadBits) {
  const std::uint64_t seed = GetParam();
  sim::RngStream rng(seed);
  const std::size_t n = 500;
  std::vector<TimeUs> ts;
  for (std::size_t i = 0; i < n; ++i) {
    ts.push_back(static_cast<TimeUs>(i) * 400);
  }
  std::vector<std::vector<double>> streams(5);
  for (auto& s : streams) {
    for (std::size_t i = 0; i < n; ++i) s.push_back(rng.normal());
  }
  const reader::ConditionedTrace ct =
      reader::test::from_columns(std::move(ts), streams);
  reader::UplinkDecoderConfig cfg;
  cfg.payload_bits = 7 + seed % 20;
  cfg.bit_duration_us = TimeUs{4'000};
  cfg.num_good_streams = 3;
  reader::UplinkDecoder dec(cfg);
  const auto res = dec.decode_conditioned(ct);
  if (res.found) {
    EXPECT_EQ(res.payload.size(), cfg.payload_bits);
    EXPECT_EQ(res.confidence.size(), cfg.payload_bits);
    EXPECT_EQ(res.streams.size(), res.weights.size());
    EXPECT_EQ(res.streams.size(), res.polarity.size());
    for (double p : res.polarity) {
      EXPECT_TRUE(p == 1.0 || p == -1.0);
    }
    for (double w : res.weights) EXPECT_GT(w, 0.0);
  }
}

TEST_P(SeededProperty, DownlinkScheduleInternallyConsistent) {
  const std::uint64_t seed = GetParam();
  sim::RngStream rng(seed);
  reader::DownlinkEncoderConfig cfg;
  const TimeUs slots[] = {TimeUs{50}, TimeUs{100}, TimeUs{200}};
  cfg.slot_us = slots[rng.uniform_int(3)];
  reader::DownlinkEncoder enc(cfg);
  const BitVec message = random_bits(1 + rng.uniform_int(900), seed);
  const auto tx = enc.encode(message, TimeUs{1'000});

  ASSERT_EQ(tx.slots.size(), message.size());
  // Slot bits reproduce the message; every '1' slot is covered by a data
  // packet; no data packet exists without a '1' slot.
  std::size_t ones = 0;
  for (std::size_t i = 0; i < message.size(); ++i) {
    EXPECT_EQ(tx.slots[i].bit, message[i]);
    if (message[i]) ++ones;
  }
  std::size_t data_packets = 0;
  for (const auto& pkt : tx.packets) {
    if (pkt.kind == wifi::FrameKind::kData) ++data_packets;
    if (pkt.kind == wifi::FrameKind::kCtsToSelf) {
      EXPECT_LE(pkt.nav_us, wifi::kMaxNavUs);
    }
  }
  EXPECT_EQ(data_packets, ones);
  // Slots are strictly increasing and packets sorted.
  for (std::size_t i = 1; i < tx.slots.size(); ++i) {
    EXPECT_GT(tx.slots[i].start_us, tx.slots[i - 1].start_us);
  }
}

TEST_P(SeededProperty, EndToEndUplinkFrameRecovery) {
  // Full-stack property at friendly SNR: whatever the payload, the reader
  // recovers it bit-exactly through channel + NIC + decoder.
  const std::uint64_t seed = GetParam();
  core::UplinkSimConfig sim_cfg;
  sim_cfg.channel.tag_pos = {0.08, 0.0};
  sim_cfg.channel.helper_pos = {3.08, 0.0};
  sim_cfg.seed = seed;

  const BitVec payload = random_bits(20, seed ^ 0xAA);
  BitVec frame = barker13();
  frame.insert(frame.end(), payload.begin(), payload.end());
  const TimeUs bit_us{10'000};
  const TimeUs start{600'000};
  const TimeUs until = start +
                       bit_us * static_cast<std::int64_t>(frame.size()) +
                       TimeUs{50'000};
  sim::RngStream rng(seed);
  auto traffic_rng = rng.fork("t");
  const auto tl = wifi::make_cbr_timeline(3'000, until,
                                          wifi::TrafficParams{},
                                          traffic_rng);
  tag::Modulator mod(frame, bit_us, start);
  core::UplinkSim sim(sim_cfg);
  const auto trace = sim.run(tl, mod);

  reader::UplinkDecoderConfig cfg;
  cfg.payload_bits = payload.size();
  cfg.bit_duration_us = bit_us;
  cfg.search_from = start - 2 * bit_us;
  cfg.search_to = start + 2 * bit_us;
  reader::UplinkDecoder dec(cfg);
  const auto res = dec.decode(trace);
  ASSERT_TRUE(res.found) << "seed " << seed;
  EXPECT_LE(hamming_distance(res.payload, payload), 1u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace wb
