// The workspace decode paths (DESIGN.md §10) promise bit-identical
// outputs on a reused workspace — only the memory behaviour differs from a
// fresh decode. These tests pin that promise against the reference reader
// (reference/reference.h): every field of every result must match bit for
// bit, and a workspace reused across traces of different shapes must
// leave no stale state behind.
#include <algorithm>
#include <cstdint>
#include <optional>

#include <gtest/gtest.h>

#include "core/uplink_sim.h"
#include "obs/flight_recorder.h"
#include "obs/forensics.h"
#include "obs/metrics.h"
#include "reader/conditioning.h"
#include "reader/corr_decoder.h"
#include "reader/decode_workspace.h"
#include "reader/uplink_decoder.h"
#include "reference/reference.h"
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

reference::StreamTrace reference_condition(const wifi::CaptureTrace& trace,
                                           MeasurementSource source,
                                           TimeUs window_us) {
  reference::ConditionScratch scratch;
  reference::StreamTrace out;
  reference::condition(trace, source, window_us, scratch, out);
  return out;
}

/// The reference reader's decode of a raw capture.
UplinkDecodeResult reference_decode(const UplinkDecoder& dec,
                                    const wifi::CaptureTrace& trace) {
  const auto& cfg = dec.config();
  return reference::uplink_decode(
      cfg, reference_condition(trace, cfg.source, cfg.movavg_window_us));
}

CodedDecodeResult reference_decode(const CodedUplinkDecoder& dec,
                                   const wifi::CaptureTrace& trace) {
  const auto& cfg = dec.config();
  return reference::coded_decode(
      cfg, reference_condition(trace, cfg.source, cfg.movavg_window_us));
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
      const auto want = reference_condition(*trace, source, TimeUs{400'000});
      condition_into(*trace, source, TimeUs{400'000}, ws, out);
      reference::expect_bitwise(out, want);
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
    const auto want = reference_decode(*c.dec, *c.trace);
    EXPECT_TRUE(want.found);
    c.dec->decode_into(*c.trace, ws, out);
    reference::expect_bitwise(out, want);
  }

  // And the not-found path must reset a previously-filled result.
  const wifi::CaptureTrace empty;
  big_dec.decode_into(empty, ws, out);
  reference::expect_bitwise(out, reference_decode(big_dec, empty));
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
    const auto want = reference_decode(dec, trace);
    EXPECT_TRUE(want.found);
    dec.decode_into(trace, ws, out);
    reference::expect_bitwise(out, want);
  }
}

TEST(WorkspaceIdentity, UplinkBatchMatchesPerTraceDecode) {
  // A batch of mixed-shape traces (big, small, big, empty) decoded one
  // after another through ONE workspace and ONE reused result must equal
  // the reference's per-trace decode exactly, whatever the previous trace
  // left behind.
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
      reference::expect_bitwise(out, reference_decode(dec, trace));
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
    reference::expect_bitwise(out, reference_decode(dec, traces[i]));
    EXPECT_EQ(out.found, i != 1);  // the empty trace sits in the middle
  }
}

// -- cropped decode oracle ----------------------------------------------
//
// decode_into conditions only the span its search, preamble variance and
// MRC read. Each case decodes one trace twice: decode_into, and the
// whole-trace condition_into followed by decode_conditioned_into. Every
// result field must match bit for bit, and so must the flight-recorder
// breadcrumbs, the forensics ledger and the conditioning packet count.

/// One decode's result plus what it left in the observability sinks.
struct Observed {
  UplinkDecodeResult result;
  std::string breadcrumbs;  ///< flight-recorder JSONL
  std::vector<std::uint64_t> ledger;  ///< conditioning + uplink counts
  std::uint64_t conditioned_packets = 0;
};

template <typename Decode>
Observed observe(Decode&& decode) {
  Observed o;
  obs::FlightRecorder rec;
  obs::ForensicsSink fx;
  obs::MetricsRegistry m;
  {
    obs::ScopedFlightRecorder rec_on(&rec);
    obs::ScopedForensics fx_on(fx);
    obs::ScopedMetrics m_on(m);
    decode(o.result);
  }
  o.breadcrumbs = rec.to_jsonl();
  for (const auto stage :
       {obs::DropStage::kConditioning, obs::DropStage::kUplinkDecoder}) {
    o.ledger.push_back(fx.attempts(stage));
    o.ledger.push_back(fx.decodes(stage));
    for (std::size_t r = 0; r < obs::kNumDropReasons; ++r) {
      o.ledger.push_back(fx.drops(stage, static_cast<obs::DropReason>(r)));
    }
  }
  o.conditioned_packets =
      m.counter("reader.conditioning.packets_total").value();
  return o;
}

/// Decodes `trace` both ways and checks they agree; returns the cropped
/// decode's observations. `ws` is the cropped decode's workspace, shared
/// across calls so that it runs warm.
Observed expect_cropped_equals_full(const UplinkDecoder& dec,
                                    const wifi::CaptureTrace& trace,
                                    DecodeWorkspace& ws) {
  const Observed cropped = observe([&](UplinkDecodeResult& out) {
    dec.decode_into(trace, ws, out);
  });
  const Observed full = observe([&](UplinkDecodeResult& out) {
    DecodeWorkspace full_ws;
    ConditionedTrace ct;
    condition_into(trace, dec.config().source, dec.config().movavg_window_us,
                   full_ws, ct);
    dec.decode_conditioned_into(ct, full_ws, out);
  });
  reference::expect_bitwise(cropped.result, full.result);
  EXPECT_EQ(cropped.breadcrumbs, full.breadcrumbs);
  EXPECT_EQ(cropped.ledger, full.ledger);
  EXPECT_EQ(cropped.conditioned_packets, full.conditioned_packets);
  return cropped;
}

UplinkDecoderConfig oracle_config(std::optional<TimeUs> from,
                                  std::optional<TimeUs> to) {
  UplinkDecoderConfig cfg;
  cfg.payload_bits = 32;
  cfg.bit_duration_us = TimeUs{10'000};
  cfg.search_from = from;
  cfg.search_to = to;
  return cfg;
}

TEST(CroppedDecode, MatchesFullDecodeAcrossSearchWindows) {
  // CSI with interleaved beacons, and RSSI over the same records; the
  // frame starts at 300 ms, the capture runs to 900 ms.
  const auto trace =
      make_capture(TimeUs{10'000}, 32, TimeUs{900'000}, 41, true);
  ASSERT_TRUE(std::any_of(trace.begin(), trace.end(),
                          [](const auto& r) { return !r.has_csi; }));
  const std::pair<std::optional<TimeUs>, std::optional<TimeUs>> windows[] = {
      {TimeUs{280'000}, TimeUs{320'000}},  // +-2 bits
      {std::nullopt, std::nullopt},        // the whole trace
      {TimeUs{-50'000}, TimeUs{320'000}},  // starts before the first packet
      {TimeUs{280'000}, TimeUs{2'000'000}},  // ends after the last
      {std::nullopt, TimeUs{320'000}},
      {TimeUs{280'000}, std::nullopt},
  };
  DecodeWorkspace ws;
  for (const auto& [from, to] : windows) {
    const auto cfg = oracle_config(from, to);
    for (const auto& dec : {UplinkDecoder(cfg),
                            UplinkDecoder(rssi_decoder_config(cfg))}) {
      SCOPED_TRACE(::testing::Message()
                   << "from " << from.value_or(TimeUs{-1}) << " to "
                   << to.value_or(TimeUs{-1}) << " rssi "
                   << (dec.config().source == MeasurementSource::kRssi));
      const auto got = expect_cropped_equals_full(dec, trace, ws);
      EXPECT_TRUE(got.result.found);
    }
  }
}

TEST(CroppedDecode, WindowOverAPacketGapDropsAsTheFullDecodeDoes) {
  // Records in [1.0 s, 1.6 s) removed. A window inside the gap keeps no
  // packet at all, yet the trace is not empty: the search still runs and
  // drops (no_preamble, or slicer_ambiguous once a negative threshold
  // accepts the empty candidate), exactly as on the whole trace. Windows
  // straddling either gap edge keep some packets.
  auto trace = make_capture(TimeUs{10'000}, 32, TimeUs{2'000'000}, 42, true);
  std::erase_if(trace, [](const wifi::CaptureRecord& r) {
    return r.timestamp_us >= TimeUs{1'000'000} &&
           r.timestamp_us < TimeUs{1'600'000};
  });
  DecodeWorkspace ws;
  for (const double threshold : {0.0, -1.0}) {
    auto cfg = oracle_config(TimeUs{1'050'000}, TimeUs{1'100'000});
    cfg.sync_threshold = threshold;
    const auto got = expect_cropped_equals_full(UplinkDecoder(cfg), trace, ws);
    EXPECT_FALSE(got.result.found);
    EXPECT_EQ(got.result.drop_reason,
              threshold < 0.0 ? obs::DropReason::kSlicerAmbiguous
                              : obs::DropReason::kNoPreamble);
  }
  for (const auto& [from, to] :
       {std::pair{TimeUs{900'000}, TimeUs{1'100'000}},
        std::pair{TimeUs{1'400'000}, TimeUs{1'650'000}}}) {
    for (const auto& cfg :
         {oracle_config(from, to),
          rssi_decoder_config(oracle_config(from, to))}) {
      expect_cropped_equals_full(UplinkDecoder(cfg), trace, ws);
    }
  }
}

TEST(CroppedDecode, EmptyAndBeaconsOnlyTracesAreEmptyTraceDrops) {
  // A found frame first, so the empty decodes run on a warm workspace.
  auto beacons_only =
      make_capture(TimeUs{10'000}, 32, TimeUs{900'000}, 43, false);
  const UplinkDecoder csi(oracle_config(TimeUs{280'000}, TimeUs{320'000}));
  DecodeWorkspace ws;
  EXPECT_TRUE(expect_cropped_equals_full(csi, beacons_only, ws).result.found);
  for (auto& rec : beacons_only) rec.has_csi = false;
  const auto got = expect_cropped_equals_full(csi, beacons_only, ws);
  EXPECT_EQ(got.result.drop_reason, obs::DropReason::kEmptyTrace);
  EXPECT_EQ(got.conditioned_packets, 0u);
  const auto empty =
      expect_cropped_equals_full(csi, wifi::CaptureTrace{}, ws);
  EXPECT_EQ(empty.result.drop_reason, obs::DropReason::kEmptyTrace);
  // RSSI needs no CSI, so the same records decode.
  const UplinkDecoder rssi(
      rssi_decoder_config(oracle_config(TimeUs{280'000}, TimeUs{320'000})));
  EXPECT_TRUE(expect_cropped_equals_full(rssi, beacons_only, ws).result.found);
}

TEST(CroppedDecode, FailedDecodeBreadcrumbDescribesTheWholeTrace) {
  // A threshold no correlation reaches: the drop's breadcrumb carries the
  // whole trace's first usable timestamp and packet count, not those of
  // the kept span, and conditioning counts every usable record.
  const auto trace =
      make_capture(TimeUs{10'000}, 32, TimeUs{900'000}, 44, true);
  std::size_t usable = 0;
  TimeUs first{-1};
  for (const auto& rec : trace) {
    if (!rec.has_csi) continue;
    if (usable++ == 0) first = rec.timestamp_us;
  }
  auto cfg = oracle_config(TimeUs{280'000}, TimeUs{320'000});
  cfg.sync_threshold = 10.0;
  DecodeWorkspace ws;
  const auto got = expect_cropped_equals_full(UplinkDecoder(cfg), trace, ws);
  EXPECT_EQ(got.result.drop_reason, obs::DropReason::kLowSnr);
  EXPECT_EQ(got.conditioned_packets, usable);
  EXPECT_LT(ws.conditioned.num_packets(), usable);
  EXPECT_NE(got.breadcrumbs.find("\"ts_us\":" +
                                 std::to_string(first.ticks())),
            std::string::npos)
      << got.breadcrumbs;
  EXPECT_NE(got.breadcrumbs.find("\"packets\":" + std::to_string(usable)),
            std::string::npos)
      << got.breadcrumbs;
}

}  // namespace
}  // namespace wb::reader
