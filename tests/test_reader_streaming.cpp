#include "reader/streaming_decoder.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "reference/reference.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/codes.h"

namespace wb::reader {
namespace {

using reference::make_trace;

/// Keeps a copy of every frame the decoder emits (on_frame() sees reused
/// scratch).
struct Collector final : FrameSink {
  std::vector<UplinkDecodeResult> frames;
  void on_frame(const UplinkDecodeResult& frame) override {
    frames.push_back(frame);
  }
};

StreamingDecoderConfig stream_config(std::size_t payload_bits,
                                     TimeUs bit_us) {
  StreamingDecoderConfig cfg;
  cfg.decoder.payload_bits = payload_bits;
  cfg.decoder.bit_duration_us = bit_us;
  return cfg;
}

TEST(StreamingDecoder, EmitsSingleFrame) {
  const BitVec payload = random_bits(24, 1);
  const auto trace = make_trace({TimeUs{700'000}}, {payload}, TimeUs{5'000},
                                TimeUs{1'500'000}, 2);
  StreamingUplinkDecoder dec(stream_config(24, TimeUs{5'000}));
  Collector sink;
  std::size_t emitted = 0;
  for (const auto& rec : trace) emitted += dec.push(rec, sink);
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(emitted, 1u);
  EXPECT_EQ(sink.frames[0].payload, payload);
  EXPECT_EQ(dec.frames_emitted(), 1u);
}

TEST(StreamingDecoder, EmitsTwoFramesInOrder) {
  const BitVec p1 = random_bits(24, 3);
  const BitVec p2 = random_bits(24, 4);
  // Frames at 0.7 s and 1.4 s (frame = 37 bits * 5 ms = 185 ms).
  const auto trace =
      make_trace({TimeUs{700'000}, TimeUs{1'400'000}}, {p1, p2},
                 TimeUs{5'000}, TimeUs{2'200'000}, 5);
  StreamingUplinkDecoder dec(stream_config(24, TimeUs{5'000}));
  Collector sink;
  for (const auto& rec : trace) dec.push(rec, sink);
  const auto& got = sink.frames;
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].payload, p1);
  EXPECT_EQ(got[1].payload, p2);
  EXPECT_LT(got[0].start_us, got[1].start_us);
}

TEST(StreamingDecoder, QuietAirEmitsNothing) {
  const auto trace = make_trace({}, {}, TimeUs{5'000}, TimeUs{1'200'000}, 6);
  StreamingUplinkDecoder dec(stream_config(24, TimeUs{5'000}));
  Collector sink;
  for (const auto& rec : trace) dec.push(rec, sink);
  EXPECT_TRUE(sink.frames.empty());
}

TEST(StreamingDecoder, BufferStaysBounded) {
  const auto trace = make_trace({}, {}, TimeUs{5'000}, TimeUs{4'000'000}, 7);
  StreamingDecoderConfig cfg = stream_config(24, TimeUs{5'000});
  cfg.history_us = TimeUs{500'000};
  StreamingUplinkDecoder dec(cfg);
  Collector sink;
  std::size_t max_buffered = 0;
  for (const auto& rec : trace) {
    dec.push(rec, sink);
    max_buffered = std::max(max_buffered, dec.buffered());
  }
  // 4 s of packets at 3000/s = 12000; the rolling window must hold far
  // fewer. (History 0.5 s + scan horizon ~ frame duration.)
  EXPECT_LT(max_buffered, 9'000u);
}

TEST(StreamingDecoder, FlushDrainsStrandedFinalFrame) {
  // Regression: the helper stops transmitting right after the frame ends
  // (frame 700'000..885'000, traffic until 890'000). push() only scans a
  // region once a *later* record extends the buffer past it, so the final
  // frame used to be stranded forever; flush() must drain it.
  const BitVec payload = random_bits(24, 10);
  const auto trace = make_trace({TimeUs{700'000}}, {payload}, TimeUs{5'000},
                                TimeUs{890'000}, 11);
  StreamingUplinkDecoder dec(stream_config(24, TimeUs{5'000}));
  Collector sink;
  for (const auto& rec : trace) dec.push(rec, sink);
  EXPECT_TRUE(sink.frames.empty());  // the pre-fix behaviour: never emitted
  EXPECT_EQ(dec.flush(sink), 1u);
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(sink.frames[0].payload, payload);
  EXPECT_EQ(dec.frames_emitted(), 1u);
}

TEST(StreamingDecoder, FlushIsIdempotent) {
  const BitVec payload = random_bits(24, 12);
  const auto trace = make_trace({TimeUs{700'000}}, {payload}, TimeUs{5'000},
                                TimeUs{890'000}, 13);
  StreamingUplinkDecoder dec(stream_config(24, TimeUs{5'000}));
  Collector sink;
  for (const auto& rec : trace) dec.push(rec, sink);
  EXPECT_EQ(dec.flush(sink), 1u);
  EXPECT_EQ(dec.flush(sink), 0u);
  EXPECT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(dec.frames_emitted(), 1u);
}

TEST(StreamingDecoder, FlushOnEmptyDecoderIsANoOp) {
  StreamingUplinkDecoder dec(stream_config(24, TimeUs{5'000}));
  Collector sink;
  EXPECT_EQ(dec.flush(sink), 0u);
  EXPECT_TRUE(sink.frames.empty());
}

TEST(StreamingDecoder, FlushAfterNormalEmissionAddsNothing) {
  // Plenty of trailing traffic: push() already emitted the frame, so
  // flush() must not re-emit it.
  const BitVec payload = random_bits(24, 14);
  const auto trace = make_trace({TimeUs{700'000}}, {payload}, TimeUs{5'000},
                                TimeUs{1'500'000}, 15);
  StreamingUplinkDecoder dec(stream_config(24, TimeUs{5'000}));
  Collector sink;
  for (const auto& rec : trace) dec.push(rec, sink);
  EXPECT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(dec.flush(sink), 0u);
  EXPECT_EQ(sink.frames.size(), 1u);
}

TEST(StreamingDecoder, ConfigWithSearchWindowViolates) {
  // The wrapper owns the search window; a caller-set bound would
  // silently fight the sliding window, so construction must reject it.
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  StreamingDecoderConfig with_from = stream_config(24, TimeUs{5'000});
  with_from.decoder.search_from = TimeUs{100'000};
  EXPECT_THROW(StreamingUplinkDecoder{with_from}, ContractViolation);
  StreamingDecoderConfig with_to = stream_config(24, TimeUs{5'000});
  with_to.decoder.search_to = TimeUs{900'000};
  EXPECT_THROW(StreamingUplinkDecoder{with_to}, ContractViolation);
}

TEST(StreamingDecoder, HistoryShorterThanConditioningWindowViolates) {
  // history_us < movavg_window_us would trim records the moving-average
  // filter still needs, silently degrading every later scan.
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  StreamingDecoderConfig cfg = stream_config(24, TimeUs{5'000});
  cfg.decoder.movavg_window_us = TimeUs{400'000};
  cfg.history_us = TimeUs{399'999};
  EXPECT_THROW(StreamingUplinkDecoder{cfg}, ContractViolation);
  // Exactly covering the window is legal.
  cfg.history_us = TimeUs{400'000};
  EXPECT_NO_THROW(StreamingUplinkDecoder{cfg});
}

TEST(StreamingDecoder, ResetRestoresFreshState) {
  const BitVec payload = random_bits(24, 1);
  const auto trace = make_trace({TimeUs{700'000}}, {payload}, TimeUs{5'000},
                                TimeUs{1'500'000}, 2);
  StreamingUplinkDecoder dec(stream_config(24, TimeUs{5'000}));
  Collector first;
  for (const auto& rec : trace) dec.push(rec, first);
  EXPECT_EQ(first.frames.size(), 1u);
  dec.reset();
  EXPECT_EQ(dec.buffered(), 0u);
  EXPECT_EQ(dec.frames_emitted(), 0u);
  // The same records decode identically in the decoder's second life
  // (reset() would otherwise reject them as out of time order).
  Collector second;
  for (const auto& rec : trace) dec.push(rec, second);
  ASSERT_EQ(second.frames.size(), 1u);
  EXPECT_EQ(second.frames[0].payload, payload);
}

TEST(StreamingDecoder, FrameNeverEmittedTwice) {
  const BitVec payload = random_bits(24, 8);
  const auto trace = make_trace({TimeUs{700'000}}, {payload}, TimeUs{5'000},
                                TimeUs{3'000'000}, 9);
  StreamingUplinkDecoder dec(stream_config(24, TimeUs{5'000}));
  Collector sink;
  for (const auto& rec : trace) dec.push(rec, sink);
  EXPECT_EQ(sink.frames.size(), 1u);
}

// ---- Streaming pins: exact frames of seeded captures ----
//
// Each capture is replayed through push(rec, sink) and then flush(sink),
// and every emitted frame's start, sync score (bit for bit), stream set
// and payload is pinned. The starts, streams and payloads were taken from
// the per-start sync probe that the phase-grid search replaced; the sync
// scores were re-pinned when conditioning's sums moved onto exact grids
// (DESIGN.md §15). Any change to sync, the re-scan loop or the history
// trim that moves a decoded output fails here.

struct FramePin {
  std::int64_t start_us;
  double sync_score;
  std::vector<std::size_t> streams;
  const char* payload;
};

std::vector<UplinkDecodeResult> replay(const wifi::CaptureTrace& trace,
                                       const StreamingDecoderConfig& cfg) {
  StreamingUplinkDecoder dec(cfg);
  Collector sink;
  for (const auto& rec : trace) dec.push(rec, sink);
  dec.flush(sink);
  return sink.frames;
}

void expect_pins(const std::vector<UplinkDecodeResult>& got,
                 const std::vector<FramePin>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].start_us.ticks(), want[i].start_us);
    EXPECT_EQ(got[i].sync_score, want[i].sync_score);
    EXPECT_EQ(got[i].streams, want[i].streams);
    EXPECT_EQ(bits_to_string(got[i].payload), want[i].payload);
  }
}

TEST(StreamingPins, OneDesignedFrame) {
  const BitVec payload = random_bits(24, 21);
  const auto trace = make_trace({TimeUs{700'000}}, {payload}, TimeUs{5'000},
                                TimeUs{1'500'000}, 22);
  const auto got = replay(trace, stream_config(24, TimeUs{5'000}));
  expect_pins(got, {{699'889, 0x1.41d6bcbbe007ap+1,
                     {40, 59, 85, 31, 51, 46, 49, 88, 56, 33},
                     "111000111010010000010111"}});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, payload);
}

TEST(StreamingPins, TwoBackToBackFrames) {
  // The second frame starts the moment the first one ends (37 bits of
  // 5 ms after 0.7 s).
  const BitVec p1 = random_bits(24, 23);
  const BitVec p2 = random_bits(24, 24);
  const auto trace =
      make_trace({TimeUs{700'000}, TimeUs{885'000}}, {p1, p2}, TimeUs{5'000},
                 TimeUs{1'600'000}, 25);
  const auto got = replay(trace, stream_config(24, TimeUs{5'000}));
  expect_pins(got, {{700'225, 0x1.6431c360c13dap+1,
                     {51, 50, 30, 56, 35, 0, 6, 11, 3, 57},
                     "011010111000000110000000"},
                    {885'225, 0x1.fdc8119dcb72p+0,
                     {51, 50, 30, 56, 35, 0, 3, 45, 40, 41},
                     "001000100111100000010101"}});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].payload, p1);
  EXPECT_EQ(got[1].payload, p2);
}

TEST(StreamingPins, QuietAir) {
  // No tag on air. At the default threshold nothing is emitted
  // (QuietAirEmitsNothing); a lowered threshold lets the best noise
  // windows through, which pins where sync peaks on noise alone.
  const auto trace = make_trace({}, {}, TimeUs{5'000}, TimeUs{1'500'000}, 26);
  StreamingDecoderConfig cfg = stream_config(24, TimeUs{5'000});
  EXPECT_TRUE(replay(trace, cfg).empty());
  cfg.sync_threshold = 0.25;
  expect_pins(replay(trace, cfg),
              {{173'026, 0x1.7988b31c9d37dp-2,
                {8, 5, 0, 76, 47, 11, 51, 43, 49, 46},
                "111111100010001000000000"},
               {397'109, 0x1.0809b691a42aep-2,
                {8, 5, 49, 23, 47, 55, 46, 88, 50, 69},
                "110011110010111011000011"},
               {636'108, 0x1.1763a96415fedp-2,
                {5, 79, 77, 83, 8, 48, 70, 78, 85, 63},
                "000010000001011011011001"},
               {907'569, 0x1.04208aed02946p-2,
                {8, 7, 5, 59, 62, 1, 18, 45, 55, 43},
                "110000000100000000100000"},
               {1'206'593, 0x1.17e2f942310a1p-2,
                {8, 78, 85, 53, 76, 64, 81, 19, 49, 39},
                "001000100000000000000001"}});
}

TEST(StreamingPins, FrameScannedAfterHistoryTrim) {
  // The shortest legal history (the conditioning window) and a frame
  // 2.4 s in: the buffer has been trimmed many times before the scans
  // that find the frame.
  const BitVec payload = random_bits(24, 27);
  const auto trace = make_trace({TimeUs{2'400'000}}, {payload},
                                TimeUs{5'000}, TimeUs{3'000'000}, 28);
  StreamingDecoderConfig cfg = stream_config(24, TimeUs{5'000});
  cfg.history_us = cfg.decoder.movavg_window_us;
  StreamingUplinkDecoder dec(cfg);
  Collector sink;
  std::size_t trims = 0;
  std::size_t prev = 0;
  for (const auto& rec : trace) {
    dec.push(rec, sink);
    if (dec.buffered() < prev) ++trims;
    prev = dec.buffered();
  }
  dec.flush(sink);
  EXPECT_GT(trims, 10u);
  expect_pins(sink.frames, {{2'400'400, 0x1.3dab459e10d8dp+1,
                             {16, 1, 3, 42, 52, 50, 30, 35, 54, 14},
                             "010100010110000010000001"}});
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(sink.frames[0].payload, payload);
}

// ---- Streaming oracle: the decoder against the reference re-scan loop ----
//
// The reference (reference::stream_frames) re-decodes the whole retained
// buffer at every scan with the reference reader, under the same scan
// cadence, consumed point and history trim. Replaying each pinned capture
// through push() and flush() must emit the same frames, every field bit
// for bit.

/// Returns how many frames the reference emitted.
std::size_t expect_matches_reference(const wifi::CaptureTrace& trace,
                                     const StreamingDecoderConfig& cfg) {
  const auto got = replay(trace, cfg);
  const auto want = reference::stream_frames(cfg, trace);
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    SCOPED_TRACE(i);
    reference::expect_bitwise(got[i], want[i]);
  }
  return want.size();
}

TEST(StreamingOracle, OneDesignedFrame) {
  const auto trace = make_trace({TimeUs{700'000}}, {random_bits(24, 21)},
                                TimeUs{5'000}, TimeUs{1'500'000}, 22);
  expect_matches_reference(trace, stream_config(24, TimeUs{5'000}));
}

TEST(StreamingOracle, TwoBackToBackFrames) {
  const auto trace = make_trace({TimeUs{700'000}, TimeUs{885'000}},
                                {random_bits(24, 23), random_bits(24, 24)},
                                TimeUs{5'000}, TimeUs{1'600'000}, 25);
  expect_matches_reference(trace, stream_config(24, TimeUs{5'000}));
}

TEST(StreamingOracle, QuietAir) {
  const auto trace = make_trace({}, {}, TimeUs{5'000}, TimeUs{1'500'000}, 26);
  StreamingDecoderConfig cfg = stream_config(24, TimeUs{5'000});
  expect_matches_reference(trace, cfg);
  cfg.sync_threshold = 0.25;
  expect_matches_reference(trace, cfg);
}

TEST(StreamingOracle, FrameScannedAfterHistoryTrim) {
  const auto trace = make_trace({TimeUs{2'400'000}}, {random_bits(24, 27)},
                                TimeUs{5'000}, TimeUs{3'000'000}, 28);
  StreamingDecoderConfig cfg = stream_config(24, TimeUs{5'000});
  cfg.history_us = cfg.decoder.movavg_window_us;
  expect_matches_reference(trace, cfg);
}

TEST(StreamingOracle, LongCaptureTrimmedBeforeNearlyEveryScan) {
  // The shortest legal history and 5 s of air: once the buffer is full,
  // nearly every scan follows a trim.
  const auto trace = make_trace({TimeUs{1'200'000}, TimeUs{3'300'000}},
                                {random_bits(24, 41), random_bits(24, 42)},
                                TimeUs{5'000}, TimeUs{5'000'000}, 43);
  StreamingDecoderConfig cfg = stream_config(24, TimeUs{5'000});
  cfg.history_us = cfg.decoder.movavg_window_us;
  EXPECT_EQ(expect_matches_reference(trace, cfg), 2u);
}

TEST(StreamingOracle, CsiCaptureWithBeacons) {
  // Records without CSI (beacons on the paper's NIC) are skipped by a CSI
  // decoder but still fill and trim the buffer.
  auto trace = make_trace({TimeUs{700'000}}, {random_bits(24, 44)},
                          TimeUs{5'000}, TimeUs{2'000'000}, 45);
  for (std::size_t i = 0; i < trace.size(); i += 7) trace[i].has_csi = false;
  EXPECT_GE(expect_matches_reference(trace, stream_config(24, TimeUs{5'000})),
            1u);
}

TEST(StreamingOracle, RssiDecoder) {
  const auto trace = make_trace({TimeUs{700'000}}, {random_bits(24, 46)},
                                TimeUs{10'000}, TimeUs{2'500'000}, 47);
  StreamingDecoderConfig cfg = stream_config(24, TimeUs{10'000});
  cfg.decoder = rssi_decoder_config(cfg.decoder);
  cfg.sync_threshold = 0.3;
  EXPECT_GE(expect_matches_reference(trace, cfg), 1u);
}

TEST(StreamingOracle, DecoderReusedAcrossReset) {
  // A second life after reset() must decode like a fresh decoder: no
  // state of the first capture may leak into the second.
  const auto first = make_trace({TimeUs{700'000}}, {random_bits(24, 48)},
                                TimeUs{5'000}, TimeUs{1'800'000}, 49);
  const auto second = make_trace({TimeUs{500'000}}, {random_bits(24, 50)},
                                 TimeUs{5'000}, TimeUs{1'500'000}, 51);
  const StreamingDecoderConfig cfg = stream_config(24, TimeUs{5'000});
  StreamingUplinkDecoder dec(cfg);
  Collector ignored;
  for (const auto& rec : first) dec.push(rec, ignored);
  dec.reset();
  Collector sink;
  for (const auto& rec : second) dec.push(rec, sink);
  dec.flush(sink);
  const auto want = reference::stream_frames(cfg, second);
  ASSERT_EQ(want.size(), 1u);
  ASSERT_EQ(sink.frames.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    reference::expect_bitwise(sink.frames[i], want[i]);
  }
}

}  // namespace
}  // namespace wb::reader
