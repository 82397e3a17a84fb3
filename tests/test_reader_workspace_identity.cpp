// The workspace decode paths (DESIGN.md §10) promise bit-identical
// outputs to the allocating wrappers — same arithmetic in the same order,
// only the memory behaviour differs. These tests pin that promise: every
// field of every result must compare EXACTLY equal (==, not NEAR), and a
// workspace reused across traces of different shapes must leave no stale
// state behind.
#include <optional>

#include <gtest/gtest.h>

#include "core/uplink_sim.h"
#include "reader/conditioning.h"
#include "reader/corr_decoder.h"
#include "reader/decode_workspace.h"
#include "reader/uplink_decoder.h"
#include "tag/modulator.h"
#include "util/codes.h"
#include "wifi/traffic.h"

namespace wb::reader {
namespace {

/// Simulated capture with one tag frame; `beacon_gaps` drops CSI on some
/// records so the CSI-skip path in conditioning is exercised too.
wifi::CaptureTrace make_capture(TimeUs bit_us, std::size_t payload_bits,
                                TimeUs until, std::uint64_t seed,
                                bool beacon_gaps) {
  core::UplinkSimConfig cfg;
  cfg.channel.tag_pos = {0.1, 0.0};
  cfg.channel.helper_pos = {3.1, 0.0};
  cfg.seed = seed;
  sim::RngStream rng(seed);
  auto traffic_rng = rng.fork("t");
  const auto tl = wifi::make_cbr_timeline(2'000, until, wifi::TrafficParams{},
                                          traffic_rng);
  BitVec frame = barker13();
  const auto payload = random_bits(payload_bits, seed ^ 0xF00D);
  frame.insert(frame.end(), payload.begin(), payload.end());
  tag::Modulator mod(frame, bit_us, TimeUs{300'000});
  core::UplinkSim sim(cfg);
  auto trace = sim.run(tl, mod);
  if (beacon_gaps) {
    auto gap_rng = rng.fork("gaps");
    for (auto& rec : trace) {
      if (gap_rng.chance(0.1)) {
        rec.has_csi = false;
        for (auto& ant : rec.csi) ant.fill(0.0);
      }
    }
  }
  return trace;
}

void expect_same(const ConditionedTrace& a, const ConditionedTrace& b) {
  ASSERT_EQ(a.timestamps, b.timestamps);
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t s = 0; s < a.streams.size(); ++s) {
    ASSERT_EQ(a.streams[s], b.streams[s]) << "stream " << s;
  }
}

void expect_same(const UplinkDecodeResult& a, const UplinkDecodeResult& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.start_us, b.start_us);
  EXPECT_EQ(a.sync_score, b.sync_score);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.streams, b.streams);
  EXPECT_EQ(a.polarity, b.polarity);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(a.packets_used, b.packets_used);
}

void expect_same(const CodedDecodeResult& a, const CodedDecodeResult& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.start_us, b.start_us);
  EXPECT_EQ(a.sync_score, b.sync_score);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.streams, b.streams);
  EXPECT_EQ(a.polarity, b.polarity);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.margin, b.margin);
}

TEST(WorkspaceIdentity, ConditioningMatchesAcrossReuse) {
  // Big trace, then a smaller one, then the big one again: the workspace
  // must regrow/shrink without leaking values between calls.
  const auto big = make_capture(TimeUs{10'000}, 32, TimeUs{900'000}, 21, true);
  const auto small = make_capture(TimeUs{5'000}, 8, TimeUs{500'000}, 22, false);

  DecodeWorkspace ws;
  ConditionedTrace out;
  for (const auto* trace : {&big, &small, &big}) {
    for (const auto source :
         {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
      const auto reference = condition(*trace, source);
      condition_into(*trace, source, TimeUs{400'000}, ws, out);
      expect_same(reference, out);
    }
  }
}

TEST(WorkspaceIdentity, UplinkDecodeMatchesAcrossReuse) {
  const auto big = make_capture(TimeUs{10'000}, 32, TimeUs{900'000}, 23, true);
  const auto small = make_capture(TimeUs{5'000}, 8, TimeUs{500'000}, 24, false);

  UplinkDecoderConfig big_cfg;
  big_cfg.payload_bits = 32;
  big_cfg.bit_duration_us = TimeUs{10'000};
  big_cfg.search_from = TimeUs{280'000};
  big_cfg.search_to = TimeUs{320'000};
  UplinkDecoderConfig small_cfg;
  small_cfg.payload_bits = 8;
  small_cfg.bit_duration_us = TimeUs{5'000};
  small_cfg.search_from = TimeUs{280'000};
  small_cfg.search_to = TimeUs{320'000};
  const UplinkDecoder big_dec(big_cfg);
  const UplinkDecoder small_dec(small_cfg);

  DecodeWorkspace ws;
  UplinkDecodeResult out;
  // Alternate decoders and traces against one shared workspace/result.
  struct Case {
    const UplinkDecoder* dec;
    const wifi::CaptureTrace* trace;
  };
  for (const auto& c : {Case{&big_dec, &big}, Case{&small_dec, &small},
                        Case{&big_dec, &big}}) {
    const auto reference = c.dec->decode(*c.trace);
    EXPECT_TRUE(reference.found);
    c.dec->decode_into(*c.trace, ws, out);
    expect_same(reference, out);
  }

  // And the not-found path must reset a previously-filled result.
  const wifi::CaptureTrace empty;
  big_dec.decode_into(empty, ws, out);
  expect_same(big_dec.decode(empty), out);
  EXPECT_FALSE(out.found);
  EXPECT_TRUE(out.payload.empty());
}

TEST(WorkspaceIdentity, CodedDecodeMatchesAcrossReuse) {
  // Coded frames: 8-chip codes, 6 payload bits. Alternate the known-start
  // probe and the full sync search, so each decode finds scratch shaped
  // by the other.
  CodedDecoderConfig cfg;
  cfg.codes = make_orthogonal_pair(8);
  cfg.payload_bits = 6;
  cfg.chip_duration_us = TimeUs{5'000};

  const auto frame_chips =
      cfg.chip_duration_us * static_cast<std::int64_t>(cfg.frame_chips());
  const auto until = TimeUs{300'000} + frame_chips + TimeUs{200'000};

  // Build a capture whose tag modulates the coded chip sequence.
  core::UplinkSimConfig sim_cfg;
  sim_cfg.channel.tag_pos = {0.3, 0.0};
  sim_cfg.channel.helper_pos = {3.3, 0.0};
  sim_cfg.seed = 25;
  sim::RngStream rng(25);
  auto traffic_rng = rng.fork("t");
  const auto tl = wifi::make_cbr_timeline(2'000, until, wifi::TrafficParams{},
                                          traffic_rng);
  BitVec bits = cfg.preamble;
  const auto payload = random_bits(cfg.payload_bits, 77);
  bits.insert(bits.end(), payload.begin(), payload.end());
  BitVec chips;
  for (std::uint8_t b : bits) {
    const BitVec& code = b ? cfg.codes.one : cfg.codes.zero;
    chips.insert(chips.end(), code.begin(), code.end());
  }
  tag::Modulator mod(chips, cfg.chip_duration_us, TimeUs{300'000});
  core::UplinkSim sim(sim_cfg);
  const auto trace = sim.run(tl, mod);

  DecodeWorkspace ws;
  CodedDecodeResult out;
  for (const bool known : {true, false, true}) {
    cfg.known_start =
        known ? std::optional<TimeUs>(TimeUs{300'000}) : std::nullopt;
    const CodedUplinkDecoder dec(cfg);
    const auto reference = dec.decode(trace);
    EXPECT_TRUE(reference.found);
    dec.decode_into(trace, ws, out);
    expect_same(reference, out);
  }
}

TEST(WorkspaceIdentity, UplinkBatchMatchesPerTraceDecode) {
  // A batch of mixed-shape traces (big, small, big, empty) decoded one
  // after another through ONE workspace and ONE reused result must equal
  // per-trace decode() exactly, whatever the previous trace left behind.
  const auto big = make_capture(TimeUs{10'000}, 32, TimeUs{900'000}, 31, true);
  const auto small = make_capture(TimeUs{10'000}, 32, TimeUs{700'000}, 32,
                                  false);
  const std::vector<wifi::CaptureTrace> traces{big, small, big,
                                               wifi::CaptureTrace{}};

  UplinkDecoderConfig cfg;
  cfg.payload_bits = 32;
  cfg.bit_duration_us = TimeUs{10'000};
  cfg.search_from = TimeUs{280'000};
  cfg.search_to = TimeUs{320'000};
  const UplinkDecoder dec(cfg);

  DecodeWorkspace ws;
  UplinkDecodeResult out;
  // Twice round: the second pass runs on a warm workspace.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& trace : traces) {
      dec.decode_into(trace, ws, out);
      expect_same(dec.decode(trace), out);
    }
  }
  EXPECT_FALSE(out.found);  // the empty trace came last
  dec.decode_into(traces[0], ws, out);
  EXPECT_TRUE(out.found);
}

TEST(WorkspaceIdentity, CodedBatchMatchesPerTraceDecode) {
  CodedDecoderConfig cfg;
  cfg.codes = make_orthogonal_pair(8);
  cfg.payload_bits = 6;
  cfg.chip_duration_us = TimeUs{5'000};
  cfg.known_start = TimeUs{300'000};

  const auto frame_chips =
      cfg.chip_duration_us * static_cast<std::int64_t>(cfg.frame_chips());
  const auto until = TimeUs{300'000} + frame_chips + TimeUs{200'000};
  core::UplinkSimConfig sim_cfg;
  sim_cfg.channel.tag_pos = {0.3, 0.0};
  sim_cfg.channel.helper_pos = {3.3, 0.0};
  sim_cfg.seed = 33;
  sim::RngStream rng(33);
  auto traffic_rng = rng.fork("t");
  const auto tl = wifi::make_cbr_timeline(2'000, until, wifi::TrafficParams{},
                                          traffic_rng);
  BitVec bits = cfg.preamble;
  const auto payload = random_bits(cfg.payload_bits, 78);
  bits.insert(bits.end(), payload.begin(), payload.end());
  BitVec chips;
  for (std::uint8_t b : bits) {
    const BitVec& code = b ? cfg.codes.one : cfg.codes.zero;
    chips.insert(chips.end(), code.begin(), code.end());
  }
  tag::Modulator mod(chips, cfg.chip_duration_us, TimeUs{300'000});
  core::UplinkSim sim(sim_cfg);
  const auto trace = sim.run(tl, mod);

  const std::vector<wifi::CaptureTrace> traces{trace, wifi::CaptureTrace{},
                                               trace};
  const CodedUplinkDecoder dec(cfg);
  DecodeWorkspace ws;
  CodedDecodeResult out;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    dec.decode_into(traces[i], ws, out);
    expect_same(dec.decode(traces[i]), out);
    EXPECT_EQ(out.found, i != 1);  // the empty trace sits in the middle
  }
}

}  // namespace
}  // namespace wb::reader
