// Oracle for the row-major conditioned trace (DESIGN.md §10, §15). The
// decoders read ConditionedTrace's [packet][lane] rows and run sync across
// the stream lanes; the reference reader (reference/reference.h) keeps
// each stream as its own vector and probes each candidate alone. Every
// sync candidate's correlations, ranking and score, and every field of
// every uplink and coded result, must match it bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/uplink_sim.h"
#include "reader/conditioning.h"
#include "reader/corr_decoder.h"
#include "reader/decode_workspace.h"
#include "reader/slot_sync.h"
#include "reader/uplink_decoder.h"
#include "reference/reference.h"
#include "tag/modulator.h"
#include "util/codes.h"
#include "wifi/traffic.h"

namespace wb::reader {
namespace {

/// One candidate of a sync search: its start and what it left behind.
struct Candidate {
  TimeUs start{0};
  reference::Probe probe;
};

struct SyncArgs {
  std::vector<double> tmpl;
  TimeUs slot_us{0};
  double min_filled = 0.0;
  std::size_t g = 1;
  TimeUs from_us{0};
  TimeUs to_us{0};
  TimeUs step_us{1};
};

std::vector<Candidate> search(const ConditionedTrace& ct, const SyncArgs& a) {
  DecodeWorkspace ws;
  std::vector<Candidate> out;
  sync_search(ct, a.tmpl, a.slot_us, a.min_filled, a.g, a.from_us, a.to_us,
              a.step_us, ws, [&](TimeUs start, double score) {
                out.push_back({start, reference::probe_of(ws, a.g, score)});
              });
  return out;
}

std::vector<Candidate> reference_search(const reference::StreamTrace& st,
                                        const SyncArgs& a) {
  std::vector<Candidate> out;
  reference::sync_search(st, a.tmpl, a.slot_us, a.min_filled, a.g,
                         a.from_us, a.to_us, a.step_us,
                         [&](TimeUs start, const reference::Probe& p) {
                           out.push_back({start, p});
                         });
  return out;
}

void expect_same_candidates(const ConditionedTrace& ct,
                            const reference::StreamTrace& st,
                            const SyncArgs& a) {
  const auto got = search(ct, a);
  const auto want = reference_search(st, a);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_FALSE(want.empty());
  for (std::size_t j = 0; j < want.size(); ++j) {
    SCOPED_TRACE(::testing::Message() << "candidate " << j << " at "
                                      << want[j].start.ticks());
    EXPECT_EQ(got[j].start, want[j].start);
    reference::expect_bitwise(got[j].probe, want[j].probe);
  }
}

reference::StreamTrace reference_condition(const wifi::CaptureTrace& trace,
                                           MeasurementSource source,
                                           TimeUs window_us) {
  reference::ConditionScratch scratch;
  reference::StreamTrace out;
  reference::condition(trace, source, window_us, scratch, out);
  return out;
}

/// One stream of a reference trace as a one-stream trace.
reference::StreamTrace single(const reference::StreamTrace& st,
                              std::size_t stream) {
  return {st.timestamps, {st.streams[stream]}};
}

// ---- captures ----

constexpr TimeUs kFrameStart{300'000};
constexpr TimeUs kWindow{400'000};

/// A simulated capture of one plain frame, with CSI dropped on ~10 % of
/// the records (beacons), so CSI decodes skip records.
wifi::CaptureTrace plain_capture(TimeUs bit_us, std::size_t payload_bits,
                                 std::uint64_t seed) {
  core::UplinkSimConfig cfg;
  cfg.channel.tag_pos = {0.1, 0.0};
  cfg.channel.helper_pos = {3.1, 0.0};
  cfg.seed = seed;
  sim::RngStream rng(seed);
  auto traffic_rng = rng.fork("t");
  BitVec frame = barker13();
  const auto payload = random_bits(payload_bits, seed ^ 0xF00D);
  frame.insert(frame.end(), payload.begin(), payload.end());
  const TimeUs until = kFrameStart +
                       bit_us * static_cast<std::int64_t>(frame.size()) +
                       TimeUs{300'000};
  const auto tl = wifi::make_cbr_timeline(2'000, until, wifi::TrafficParams{},
                                          traffic_rng);
  tag::Modulator mod(frame, bit_us, kFrameStart);
  core::UplinkSim sim(cfg);
  auto trace = sim.run(tl, mod);
  auto gap_rng = rng.fork("gaps");
  for (auto& rec : trace) {
    if (gap_rng.chance(0.1)) {
      rec.has_csi = false;
      for (auto& ant : rec.csi) ant.fill(0.0);
    }
  }
  return trace;
}

/// A simulated capture of one coded frame. Every 50th record carries a
/// spike on every CSI and RSSI lane, so the winsoriser clamps samples.
wifi::CaptureTrace coded_capture(const CodedDecoderConfig& dec,
                                 std::uint64_t seed) {
  core::UplinkSimConfig cfg;
  cfg.channel.tag_pos = {0.5, 0.0};
  cfg.channel.helper_pos = {3.5, 0.0};
  cfg.seed = seed;
  sim::RngStream rng(seed);
  auto traffic_rng = rng.fork("t");
  BitVec frame = dec.preamble;
  const auto payload = random_bits(dec.payload_bits, seed ^ 0xABCD);
  frame.insert(frame.end(), payload.begin(), payload.end());
  const TimeUs until = kFrameStart + dec.frame_duration_us() + TimeUs{300'000};
  const auto tl = wifi::make_cbr_timeline(3'000, until, wifi::TrafficParams{},
                                          traffic_rng);
  tag::Modulator mod(frame, dec.codes, dec.chip_duration_us, kFrameStart);
  core::UplinkSim sim(cfg);
  auto trace = sim.run(tl, mod);
  for (std::size_t k = 0; k < trace.size(); k += 50) {
    for (auto& ant : trace[k].csi) {
      for (double& v : ant) v *= 6.0;
    }
    for (double& v : trace[k].rssi_dbm) v += 30.0;
  }
  return trace;
}

UplinkDecoderConfig plain_config(MeasurementSource source, TimeUs bit_us,
                                 std::size_t payload_bits) {
  UplinkDecoderConfig cfg;
  cfg.payload_bits = payload_bits;
  cfg.bit_duration_us = bit_us;
  cfg.movavg_window_us = kWindow;
  return source == MeasurementSource::kRssi ? rssi_decoder_config(cfg) : cfg;
}

CodedDecoderConfig coded_config(MeasurementSource source) {
  CodedDecoderConfig cfg;
  cfg.source = source;
  cfg.codes = make_orthogonal_pair(8);
  cfg.payload_bits = 12;
  cfg.chip_duration_us = TimeUs{4'000};
  cfg.movavg_window_us = kWindow;
  if (source == MeasurementSource::kRssi) cfg.num_good_streams = 1;
  return cfg;
}

// ---- the oracle ----

TEST(LayoutOracle, SyncCandidatesMatchPerStreamKernel) {
  // CSI with beacons (90 streams, 2 padding lanes), RSSI (3 streams, 1
  // padding lane) and one stream (3 padding lanes); a full search over
  // several blocks at a quarter-bit step, a coarse search whose
  // candidates share no slots, and a lone probe of the frame start.
  const TimeUs bit{10'000};
  const auto trace = plain_capture(bit, 24, 41);
  const std::vector<double> tmpl = to_bipolar(barker13());
  const double need = kMinPreambleFill * static_cast<double>(tmpl.size());
  for (const auto source :
       {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
    const ConditionedTrace ct = condition(trace, source, kWindow);
    const auto st = reference_condition(trace, source, kWindow);
    ConditionedTrace one;
    copy_stream(ct, ct.num_streams() - 1, one);
    const auto st_one = single(st, st.num_streams() - 1);
    const std::size_t g = std::min<std::size_t>(10, ct.num_streams());
    const SyncArgs full{tmpl, bit, need, g, ct.timestamps.front(),
                        ct.timestamps.back(), bit / 4};
    const SyncArgs coarse{tmpl, bit, need, g, TimeUs{0}, TimeUs{900'000},
                          bit * 17};
    const SyncArgs probe{tmpl, bit, need, g, kFrameStart, kFrameStart, bit};
    for (const SyncArgs& a : {full, coarse, probe}) {
      SCOPED_TRACE(::testing::Message()
                   << "rssi " << (source == MeasurementSource::kRssi)
                   << " step " << a.step_us.ticks());
      expect_same_candidates(ct, st, a);
      SyncArgs a1 = a;
      a1.g = 1;
      expect_same_candidates(one, st_one, a1);
    }
  }
}

TEST(LayoutOracle, UplinkDecodeMatchesPerStreamPipeline) {
  const TimeUs bit{10'000};
  const std::size_t payload_bits = 24;
  const auto trace = plain_capture(bit, payload_bits, 43);
  DecodeWorkspace ws;
  UplinkDecodeResult got;
  for (const auto source :
       {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
    const auto st = reference_condition(trace, source, kWindow);
    UplinkDecoderConfig search = plain_config(source, bit, payload_bits);
    UplinkDecoderConfig probe = search;
    probe.search_from = kFrameStart;
    probe.search_to = kFrameStart;
    for (const auto& cfg : {search, probe}) {
      SCOPED_TRACE(::testing::Message()
                   << "rssi " << (source == MeasurementSource::kRssi)
                   << " probe " << cfg.search_from.has_value());
      const UplinkDecoder dec(cfg);
      const auto want = reference::uplink_decode(cfg, st);
      ASSERT_TRUE(want.found);
      dec.decode_into(trace, ws, got);
      reference::expect_bitwise(got, want);
      // The combined signal itself, which the votes only threshold.
      reference::expect_bitwise(ws.y, reference::combine(cfg, st, want));
      dec.decode_conditioned_into(condition(trace, source, kWindow), ws, got);
      reference::expect_bitwise(got, want);
    }
    // One stream of the trace, as the random-stream baseline decodes it.
    const ConditionedTrace ct = condition(trace, source, kWindow);
    UplinkDecoderConfig one_stream = search;
    one_stream.num_good_streams = 1;
    const UplinkDecoder dec(one_stream);
    ConditionedTrace one;
    for (const std::size_t s : {std::size_t{0}, ct.num_streams() - 1}) {
      copy_stream(ct, s, one);
      dec.decode_conditioned_into(one, ws, got);
      reference::expect_bitwise(
          got, reference::uplink_decode(one_stream, single(st, s)));
    }
  }
}

TEST(LayoutOracle, CodedDecodeMatchesPerStreamPipeline) {
  DecodeWorkspace ws;
  CodedDecodeResult got;
  for (const auto source :
       {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
    const CodedDecoderConfig search = coded_config(source);
    const auto trace = coded_capture(search, 47);
    const auto st = reference_condition(trace, source, kWindow);
    CodedDecoderConfig known = search;
    known.known_start = kFrameStart;
    for (const auto& cfg : {known, search}) {
      SCOPED_TRACE(::testing::Message()
                   << "rssi " << (source == MeasurementSource::kRssi)
                   << " known start " << cfg.known_start.has_value());
      const CodedUplinkDecoder dec(cfg);
      const auto want = reference::coded_decode(cfg, st);
      ASSERT_TRUE(want.found);
      ASSERT_GT(want.clipped_fraction, 0.0);
      dec.decode_into(trace, ws, got);
      reference::expect_bitwise(got, want);
    }
    // One stream (3 padding lanes): its clipped fraction counts that
    // stream's samples alone.
    const ConditionedTrace ct = condition(trace, source, kWindow);
    known.num_good_streams = 1;
    const CodedUplinkDecoder dec(known);
    ConditionedTrace one;
    for (const std::size_t s : {std::size_t{0}, ct.num_streams() - 1}) {
      copy_stream(ct, s, one);
      dec.decode_conditioned_into(one, ws, got);
      const auto want = reference::coded_decode(known, single(st, s));
      ASSERT_GT(want.clipped_fraction, 0.0);
      reference::expect_bitwise(got, want);
    }
  }
}

}  // namespace
}  // namespace wb::reader
