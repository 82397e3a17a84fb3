#include "reader/uplink_decoder.h"

#include <gtest/gtest.h>

#include <optional>

#include "reader/slot_sync.h"
#include "sim/rng.h"
#include "trace_columns.h"
#include "util/check.h"
#include "util/codes.h"

namespace wb::reader {
namespace {

/// Build a synthetic conditioned trace directly: `num_streams` streams
/// observing a frame (preamble + payload) with per-stream gain/polarity
/// and additive Gaussian noise; packets arrive at a fixed rate.
struct SyntheticTrace {
  ConditionedTrace ct;
  TimeUs frame_start{0};
  BitVec payload;
};

struct SyntheticSpec {
  std::size_t num_streams = 12;
  std::size_t good_streams = 6;   ///< streams with signal (rest pure noise)
  double gain = 1.0;              ///< signal amplitude on good streams
  double noise = 0.3;
  double packet_interval_us = 500;
  TimeUs bit_us{5'000};
  std::size_t payload_bits = 24;
  TimeUs lead_us{50'000};
  bool alternate_polarity = false;  ///< invert every other good stream
  std::uint64_t seed = 1;
};

SyntheticTrace make_synthetic(const SyntheticSpec& spec) {
  SyntheticTrace out;
  out.frame_start = spec.lead_us;
  out.payload = random_bits(spec.payload_bits, spec.seed ^ 0xBEEF);
  BitVec frame = barker13();
  frame.insert(frame.end(), out.payload.begin(), out.payload.end());

  const TimeUs end =
      spec.lead_us +
      spec.bit_us * static_cast<std::int64_t>(frame.size()) + TimeUs{50'000};
  sim::RngStream rng(spec.seed);
  auto noise_rng = rng.fork("noise");

  std::vector<TimeUs> ts;
  for (double t = 0.0; t < static_cast<double>(end.ticks());
       t += spec.packet_interval_us) {
    ts.push_back(TimeUs{static_cast<std::int64_t>(t)});
  }
  std::vector<std::vector<double>> streams(spec.num_streams);
  for (std::size_t s = 0; s < spec.num_streams; ++s) {
    const bool good = s < spec.good_streams;
    const double polarity =
        (spec.alternate_polarity && s % 2 == 1) ? -1.0 : 1.0;
    for (const TimeUs t : ts) {
      double v = noise_rng.normal(0.0, spec.noise);
      if (good && t >= out.frame_start) {
        const auto bit =
            static_cast<std::size_t>((t - out.frame_start) / spec.bit_us);
        if (bit < frame.size()) {
          v += polarity * spec.gain * (frame[bit] ? 1.0 : -1.0);
        }
      }
      streams[s].push_back(v);
    }
  }
  out.ct = test::from_columns(std::move(ts), streams);
  return out;
}

UplinkDecoderConfig config_for(const SyntheticSpec& spec) {
  UplinkDecoderConfig cfg;
  cfg.payload_bits = spec.payload_bits;
  cfg.bit_duration_us = spec.bit_us;
  cfg.num_good_streams = spec.good_streams;
  return cfg;
}

/// Signed preamble correlation of one stream at a candidate start: the
/// shared sync kernel's per-stream output under the decoder's fill gate,
/// from a one-candidate search.
double preamble_corr(const ConditionedTrace& ct,
                     const UplinkDecoderConfig& cfg, std::size_t stream,
                     TimeUs start) {
  const std::vector<double> tmpl = to_bipolar(cfg.preamble);
  DecodeWorkspace ws;
  double corr = 0.0;
  sync_search(ct, tmpl, cfg.bit_duration_us,
              kMinPreambleFill * static_cast<double>(tmpl.size()), 1,
              start, start, cfg.bit_duration_us, ws,
              [&](TimeUs, double) { corr = ws.corrs[stream]; });
  return corr;
}

/// Sync on a fresh workspace; nullopt when no frame start cleared the
/// threshold, else the start with the ranked streams left in `ws`.
std::optional<TimeUs> sync(const UplinkDecoder& dec,
                           const ConditionedTrace& ct, DecodeWorkspace& ws) {
  TimeUs start{0};
  double score = 0.0;
  obs::DropReason failure{};
  if (!dec.find_frame(ct, ws, start, score, failure)) return std::nullopt;
  return start;
}

/// Mean of stream 0's packets in slot m of `edges`: their packet-order
/// sum from 0.0, divided once by their count.
double slot_mean(const ConditionedTrace& ct,
                 const std::vector<std::size_t>& edges, std::size_t m) {
  double sum = 0.0;
  for (std::size_t p = edges[m]; p < edges[m + 1]; ++p) {
    sum += ct.at(p, 0);
  }
  return sum / static_cast<double>(edges[m + 1] - edges[m]);
}

TEST(BinSlots, MeansAndCounts) {
  const ConditionedTrace ct = test::from_columns(
      {TimeUs{0}, TimeUs{100}, TimeUs{200}, TimeUs{1'000}, TimeUs{1'100},
       TimeUs{2'500}},
      {{1.0, 2.0, 3.0, 10.0, 20.0, 7.0}});
  std::vector<std::size_t> edges;
  slot_edges_into(ct.timestamps, TimeUs{0}, TimeUs{1'000}, 3, edges);
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_EQ(edges[1] - edges[0], 3u);
  EXPECT_DOUBLE_EQ(slot_mean(ct, edges, 0), 2.0);
  EXPECT_EQ(edges[2] - edges[1], 2u);
  EXPECT_DOUBLE_EQ(slot_mean(ct, edges, 1), 15.0);
  EXPECT_EQ(edges[3] - edges[2], 1u);
  EXPECT_DOUBLE_EQ(slot_mean(ct, edges, 2), 7.0);
}

TEST(BinSlots, IgnoresPacketsOutsideRange) {
  const ConditionedTrace ct = test::from_columns(
      {TimeUs{-500}, TimeUs{0}, TimeUs{500}, TimeUs{5'000}},
      {{100.0, 1.0, 2.0, 100.0}});
  std::vector<std::size_t> edges;
  slot_edges_into(ct.timestamps, TimeUs{0}, TimeUs{1'000}, 1, edges);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], 1u);
  EXPECT_EQ(edges[1], 3u);
  EXPECT_DOUBLE_EQ(slot_mean(ct, edges, 0), 1.5);
}

TEST(UplinkDecoder, PreambleCorrelationPeaksAtTrueStart) {
  SyntheticSpec spec;
  spec.noise = 0.05;
  const auto syn = make_synthetic(spec);
  const auto cfg = config_for(spec);
  const double at_true = preamble_corr(syn.ct, cfg, 0, syn.frame_start);
  const double off =
      preamble_corr(syn.ct, cfg, 0, syn.frame_start + 4 * spec.bit_us);
  EXPECT_GT(at_true, 0.8);
  EXPECT_GT(at_true, std::abs(off) + 0.3);
}

TEST(UplinkDecoder, CorrelationSignReflectsPolarity) {
  SyntheticSpec spec;
  spec.noise = 0.05;
  spec.alternate_polarity = true;
  const auto syn = make_synthetic(spec);
  const auto cfg = config_for(spec);
  EXPECT_GT(preamble_corr(syn.ct, cfg, 0, syn.frame_start), 0.5);
  EXPECT_LT(preamble_corr(syn.ct, cfg, 1, syn.frame_start), -0.5);
}

TEST(UplinkDecoder, CorrelationZeroWhenUnderFilled) {
  SyntheticSpec spec;
  spec.packet_interval_us = 20'000;  // one packet per 4 bits
  const auto syn = make_synthetic(spec);
  EXPECT_DOUBLE_EQ(
      preamble_corr(syn.ct, config_for(spec), 0, syn.frame_start), 0.0);
}

TEST(UplinkDecoder, FindsFrameStart) {
  SyntheticSpec spec;
  const auto syn = make_synthetic(spec);
  UplinkDecoder dec(config_for(spec));
  DecodeWorkspace ws;
  const auto start = sync(dec, syn.ct, ws);
  ASSERT_TRUE(start.has_value());
  EXPECT_NEAR(static_cast<double>(start->ticks()),
              static_cast<double>(syn.frame_start.ticks()),
              static_cast<double>(spec.bit_us.ticks()) / 2.0);
}

TEST(UplinkDecoder, SelectsGoodStreams) {
  SyntheticSpec spec;
  spec.num_streams = 20;
  spec.good_streams = 5;
  const auto syn = make_synthetic(spec);
  UplinkDecoderConfig cfg = config_for(spec);
  cfg.num_good_streams = 5;
  UplinkDecoder dec(cfg);
  DecodeWorkspace ws;
  ASSERT_TRUE(sync(dec, syn.ct, ws).has_value());
  ASSERT_EQ(ws.best_streams.size(), 5u);
  // All 5 selected streams should be among the 5 that carry signal.
  for (std::size_t s : ws.best_streams) {
    EXPECT_LT(s, 5u) << "noise stream selected";
  }
}

TEST(UplinkDecoder, NoiseVarianceLowForCleanStream) {
  SyntheticSpec spec;
  spec.noise = 0.1;
  const auto syn = make_synthetic(spec);
  UplinkDecoder dec(config_for(spec));
  const double clean =
      dec.preamble_noise_variance(syn.ct, 0, 1.0, syn.frame_start);
  const double noisy = dec.preamble_noise_variance(
      syn.ct, spec.num_streams - 1, 1.0, syn.frame_start);
  EXPECT_LT(clean, noisy);
  EXPECT_NEAR(clean, 0.01, 0.01);  // sigma^2 of the 0.1 noise
}

TEST(UplinkDecoder, DecodesCleanFrame) {
  SyntheticSpec spec;
  spec.noise = 0.2;
  const auto syn = make_synthetic(spec);
  UplinkDecoder dec(config_for(spec));
  const auto res = dec.decode_conditioned(syn.ct);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.payload, syn.payload);
  EXPECT_EQ(res.payload.size(), spec.payload_bits);
}

TEST(UplinkDecoder, DecodesWithInvertedStreams) {
  SyntheticSpec spec;
  spec.noise = 0.2;
  spec.alternate_polarity = true;
  const auto syn = make_synthetic(spec);
  UplinkDecoder dec(config_for(spec));
  const auto res = dec.decode_conditioned(syn.ct);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.payload, syn.payload);
  // Recorded polarities must differ across the selected streams.
  bool pos = false, neg = false;
  for (double p : res.polarity) {
    if (p > 0) pos = true;
    if (p < 0) neg = true;
  }
  EXPECT_TRUE(pos && neg);
}

TEST(UplinkDecoder, DecodesAtModerateNoiseViaCombining) {
  // Single streams at this SNR are unreliable; combining must recover.
  SyntheticSpec spec;
  spec.noise = 1.2;
  spec.good_streams = 8;
  spec.num_streams = 16;
  const auto syn = make_synthetic(spec);
  UplinkDecoderConfig cfg = config_for(spec);
  cfg.num_good_streams = 8;
  UplinkDecoder dec(cfg);
  const auto res = dec.decode_conditioned(syn.ct);
  ASSERT_TRUE(res.found);
  EXPECT_LE(hamming_distance(res.payload, syn.payload), 1u);
}

TEST(UplinkDecoder, WeightsFavourCleanStreams) {
  // Two good streams with very different noise: MRC weight of the clean
  // one should dominate.
  SyntheticSpec spec;
  spec.num_streams = 2;
  spec.good_streams = 2;
  spec.noise = 0.1;
  auto syn = make_synthetic(spec);
  // Add extra noise to stream 1.
  sim::RngStream extra(99);
  for (std::size_t k = 0; k < syn.ct.num_packets(); ++k) {
    syn.ct.at(k, 1) += extra.normal(0.0, 1.0);
  }
  UplinkDecoderConfig cfg = config_for(spec);
  cfg.num_good_streams = 2;
  UplinkDecoder dec(cfg);
  const auto res = dec.decode_conditioned(syn.ct);
  ASSERT_TRUE(res.found);
  ASSERT_EQ(res.streams.size(), 2u);
  const std::size_t clean_pos = res.streams[0] == 0 ? 0 : 1;
  EXPECT_GT(res.weights[clean_pos], 3.0 * res.weights[1 - clean_pos]);
}

TEST(UplinkDecoder, EmptyTraceNotFound) {
  SyntheticSpec spec;
  UplinkDecoder dec(config_for(spec));
  const auto res = dec.decode_conditioned(ConditionedTrace{});
  EXPECT_FALSE(res.found);
}

TEST(UplinkDecoder, SyncThresholdRejectsPureNoise) {
  SyntheticSpec spec;
  spec.good_streams = 0;  // nothing but noise
  const auto syn = make_synthetic(spec);
  UplinkDecoderConfig cfg = config_for(spec);
  cfg.num_good_streams = 4;
  cfg.sync_threshold = 0.5;  // require a real preamble
  UplinkDecoder dec(cfg);
  EXPECT_FALSE(dec.decode_conditioned(syn.ct).found);
}

TEST(UplinkDecoder, SearchWindowRestrictsSync) {
  SyntheticSpec spec;
  const auto syn = make_synthetic(spec);
  UplinkDecoderConfig cfg = config_for(spec);
  cfg.search_from = syn.frame_start - 2 * spec.bit_us;
  cfg.search_to = syn.frame_start + 2 * spec.bit_us;
  UplinkDecoder dec(cfg);
  const auto res = dec.decode_conditioned(syn.ct);
  ASSERT_TRUE(res.found);
  EXPECT_GE(res.start_us, *cfg.search_from);
  EXPECT_LE(res.start_us, *cfg.search_to);
  EXPECT_EQ(res.payload, syn.payload);
}

TEST(UplinkDecoder, ConfidenceHighWhenClean) {
  SyntheticSpec spec;
  spec.noise = 0.1;
  const auto syn = make_synthetic(spec);
  UplinkDecoder dec(config_for(spec));
  const auto res = dec.decode_conditioned(syn.ct);
  ASSERT_TRUE(res.found);
  double mean_conf = 0.0;
  for (double c : res.confidence) mean_conf += c;
  mean_conf /= static_cast<double>(res.confidence.size());
  EXPECT_GT(mean_conf, 0.9);
}

TEST(UplinkDecoder, RssiConfigUsesOneStream) {
  UplinkDecoderConfig base;
  base.num_good_streams = 10;
  const auto rssi = rssi_decoder_config(base);
  EXPECT_EQ(rssi.num_good_streams, 1u);
  EXPECT_EQ(rssi.source, MeasurementSource::kRssi);
}

TEST(UplinkDecoder, HysteresisAbsorbsSpuriousOutliers) {
  // Inject single-packet outliers; with per-packet majority voting they
  // must not flip bits.
  SyntheticSpec spec;
  spec.noise = 0.2;
  auto syn = make_synthetic(spec);
  sim::RngStream spike_rng(7);
  for (std::size_t s = 0; s < syn.ct.num_streams(); ++s) {
    for (std::size_t k = 0; k < syn.ct.num_packets(); ++k) {
      double& v = syn.ct.at(k, s);
      if (spike_rng.chance(0.01)) v += spike_rng.uniform(-8.0, 8.0);
    }
  }
  UplinkDecoder dec(config_for(spec));
  const auto res = dec.decode_conditioned(syn.ct);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.payload, syn.payload);
}

class DecoderBitRateSweep : public ::testing::TestWithParam<TimeUs> {};

TEST_P(DecoderBitRateSweep, DecodesAcrossBitDurations) {
  SyntheticSpec spec;
  spec.bit_us = GetParam();
  spec.noise = 0.3;
  const auto syn = make_synthetic(spec);
  UplinkDecoder dec(config_for(spec));
  const auto res = dec.decode_conditioned(syn.ct);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.payload, syn.payload) << "bit_us=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(BitDurations, DecoderBitRateSweep,
                         ::testing::Values(TimeUs{1'000}, TimeUs{2'000},
                                           TimeUs{5'000}, TimeUs{10'000},
                                           TimeUs{20'000}));

TEST(UplinkDecoder, CtorRejectsInvertedSearchWindow) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  UplinkDecoderConfig cfg;
  cfg.search_from = TimeUs{100'000};
  cfg.search_to = TimeUs{50'000};
  EXPECT_THROW(UplinkDecoder{cfg}, ContractViolation);
  // A half-open window (only one end set) is fine.
  cfg.search_to.reset();
  EXPECT_NO_THROW(UplinkDecoder{cfg});
}

TEST(UplinkDecoder, SetSearchWindowRejectsInverted) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  UplinkDecoder dec{UplinkDecoderConfig{}};
  EXPECT_THROW(dec.set_search_window(TimeUs{100'000}, TimeUs{50'000}),
               ContractViolation);
  EXPECT_NO_THROW(dec.set_search_window(TimeUs{50'000}, TimeUs{100'000}));
  EXPECT_NO_THROW(dec.set_search_window(std::nullopt, std::nullopt));
}

TEST(UplinkDecoder, SyncTieBreakKeepsEarliestFrameStart) {
  // Two bit-identical, noiseless copies of the same frame on a packet
  // grid that divides both starts: the sync scores at both frame starts
  // are the SAME double, and the pinned first-max-wins tie-break (strict
  // `>` in find_frame) must report the earlier one. A `>=` regression or
  // a reordered score reduction would flip this to the later copy.
  const TimeUs bit{5'000};
  const BitVec payload = random_bits(24, 7);
  BitVec frame = barker13();
  frame.insert(frame.end(), payload.begin(), payload.end());
  const TimeUs first{50'000};
  const TimeUs second = first + TimeUs{200'000};  // multiple of bit & step

  std::vector<TimeUs> ts;
  const TimeUs end =
      second + bit * static_cast<std::int64_t>(frame.size()) + TimeUs{50'000};
  for (std::int64_t t = 0; t < end.ticks(); t += 500) {
    ts.push_back(TimeUs{t});
  }
  std::vector<double> xs;
  for (const TimeUs t : ts) {
    double v = 0.0;
    for (const TimeUs start : {first, second}) {
      if (t >= start) {
        const auto b = static_cast<std::size_t>((t - start) / bit);
        if (b < frame.size()) v = frame[b] ? 1.0 : -1.0;
      }
    }
    xs.push_back(v);
  }
  const ConditionedTrace ct = test::from_columns(std::move(ts), {xs});

  UplinkDecoderConfig cfg;
  cfg.payload_bits = payload.size();
  cfg.bit_duration_us = bit;
  cfg.num_good_streams = 1;
  const UplinkDecoder dec(cfg);
  const auto res = dec.decode_conditioned(ct);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.start_us, first);
  EXPECT_EQ(res.payload, payload);
}

}  // namespace
}  // namespace wb::reader
