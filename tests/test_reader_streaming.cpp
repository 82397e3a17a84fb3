#include "reader/streaming_decoder.h"

#include <gtest/gtest.h>

#include "core/uplink_sim.h"
#include "tag/modulator.h"
#include "util/check.h"
#include "util/codes.h"
#include "wifi/traffic.h"

namespace wb::reader {
namespace {

/// Generate a capture trace containing tag frames at the given start
/// times, with helper CBR traffic throughout.
wifi::CaptureTrace make_trace(const std::vector<TimeUs>& frame_starts,
                              const std::vector<BitVec>& payloads,
                              TimeUs bit_us, TimeUs until,
                              std::uint64_t seed) {
  core::UplinkSimConfig cfg;
  cfg.channel.tag_pos = {0.08, 0.0};
  cfg.channel.helper_pos = {3.08, 0.0};
  cfg.seed = seed;
  sim::RngStream rng(seed);
  auto traffic_rng = rng.fork("t");
  const auto tl = wifi::make_cbr_timeline(3'000, until,
                                          wifi::TrafficParams{},
                                          traffic_rng);
  std::vector<tag::Modulator> mods;
  for (std::size_t i = 0; i < frame_starts.size(); ++i) {
    BitVec frame = barker13();
    frame.insert(frame.end(), payloads[i].begin(), payloads[i].end());
    mods.emplace_back(frame, bit_us, frame_starts[i]);
  }
  // Compose: at most one frame active at a time in these tests.
  core::UplinkSim sim(cfg);
  wifi::CaptureTrace trace;
  for (const auto& pkt : tl) {
    bool state = false;
    for (const auto& m : mods) state = state || m.state_at(pkt.start_us);
    const auto h = sim.channel().response(state, pkt.start_us);
    trace.push_back(
        sim.nic().measure(h, pkt.start_us, pkt.source, pkt.kind));
  }
  return trace;
}

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

}  // namespace
}  // namespace wb::reader
