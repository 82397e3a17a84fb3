#include "reader/corr_decoder.h"

#include <gtest/gtest.h>

#include "reader/slot_sync.h"
#include "sim/rng.h"
#include "trace_columns.h"
#include "util/check.h"

namespace wb::reader {
namespace {

/// Synthetic coded trace: streams observing a chip sequence with additive
/// noise; mirrors the tag's coded modulator output.
struct CodedSynthetic {
  ConditionedTrace ct;
  TimeUs frame_start{0};
  BitVec payload;
};

struct CodedSpec {
  std::size_t num_streams = 8;
  std::size_t good_streams = 4;
  double gain = 1.0;
  double noise = 0.4;
  double packet_interval_us = 500;
  std::size_t code_length = 8;
  TimeUs chip_us{2'000};
  std::size_t payload_bits = 10;
  TimeUs lead_us{30'000};
  std::uint64_t seed = 3;
};

CodedSynthetic make_coded(const CodedSpec& spec) {
  CodedSynthetic out;
  out.frame_start = spec.lead_us;
  out.payload = random_bits(spec.payload_bits, spec.seed ^ 0xF00D);
  const auto codes = make_orthogonal_pair(spec.code_length);

  BitVec frame = barker13();
  frame.insert(frame.end(), out.payload.begin(), out.payload.end());
  BitVec chips;
  for (std::uint8_t b : frame) {
    const BitVec& c = b ? codes.one : codes.zero;
    chips.insert(chips.end(), c.begin(), c.end());
  }

  const TimeUs end =
      spec.lead_us +
      spec.chip_us * static_cast<std::int64_t>(chips.size()) + TimeUs{30'000};
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
    for (const TimeUs t : ts) {
      double v = noise_rng.normal(0.0, spec.noise);
      if (good && t >= out.frame_start) {
        const auto chip =
            static_cast<std::size_t>((t - out.frame_start) / spec.chip_us);
        if (chip < chips.size()) {
          v += spec.gain * (chips[chip] ? 1.0 : -1.0);
        }
      }
      streams[s].push_back(v);
    }
  }
  out.ct = test::from_columns(std::move(ts), streams);
  return out;
}

CodedDecoderConfig config_for(const CodedSpec& spec) {
  CodedDecoderConfig cfg;
  cfg.codes = make_orthogonal_pair(spec.code_length);
  cfg.payload_bits = spec.payload_bits;
  cfg.chip_duration_us = spec.chip_us;
  cfg.num_good_streams = spec.good_streams;
  return cfg;
}

TEST(CodedDecoder, DecodesCleanFrameWithKnownStart) {
  CodedSpec spec;
  auto cfg = config_for(spec);
  const auto syn = make_coded(spec);
  cfg.known_start = syn.frame_start;
  CodedUplinkDecoder dec(cfg);
  const auto res = dec.decode_conditioned(syn.ct);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.payload, syn.payload);
}

TEST(CodedDecoder, SyncSearchFindsFrame) {
  CodedSpec spec;
  spec.noise = 0.3;
  const auto syn = make_coded(spec);
  CodedUplinkDecoder dec(config_for(spec));
  const auto res = dec.decode_conditioned(syn.ct);
  ASSERT_TRUE(res.found);
  EXPECT_NEAR(static_cast<double>(res.start_us.ticks()),
              static_cast<double>(syn.frame_start.ticks()),
              static_cast<double>(spec.chip_us.ticks()));
  EXPECT_EQ(res.payload, syn.payload);
}

TEST(CodedDecoder, PreambleCorrelationPositiveAtStart) {
  // The coded preamble's chip template on the shared sync kernel, gated
  // like the decoder's sync search.
  CodedSpec spec;
  spec.noise = 0.1;
  const auto syn = make_coded(spec);
  const auto cfg = config_for(spec);
  BitVec chips;
  for (std::uint8_t b : cfg.preamble) {
    const BitVec& c = b ? cfg.codes.one : cfg.codes.zero;
    chips.insert(chips.end(), c.begin(), c.end());
  }
  const std::vector<double> tmpl = to_bipolar(chips);
  DecodeWorkspace ws;
  double corr = 0.0;
  sync_search(syn.ct, tmpl, cfg.chip_duration_us,
              kMinChipFill * static_cast<double>(tmpl.size()), 1,
              syn.frame_start, syn.frame_start, cfg.chip_duration_us, ws,
              [&](TimeUs, double) { corr = ws.corrs[0]; });
  EXPECT_GT(corr, 0.5);
}

TEST(CodedDecoder, LongerCodesSurviveMoreNoise) {
  // At a noise level where L=4 fails regularly, L=32 must decode. This is
  // the paper's central §3.4 claim (SNR gain proportional to L).
  auto errors_at = [](std::size_t code_len, std::uint64_t seed) {
    CodedSpec spec;
    spec.code_length = code_len;
    spec.noise = 6.0;
    spec.gain = 1.0;
    spec.seed = seed;
    auto cfg = config_for(spec);
    const auto syn = make_coded(spec);
    cfg.known_start = syn.frame_start;
    CodedUplinkDecoder dec(cfg);
    const auto res = dec.decode_conditioned(syn.ct);
    if (!res.found) return spec.payload_bits;
    return hamming_distance(res.payload, syn.payload);
  };
  std::size_t short_errors = 0, long_errors = 0;
  for (std::uint64_t s = 0; s < 6; ++s) {
    short_errors += errors_at(4, 100 + s);
    long_errors += errors_at(32, 100 + s);
  }
  EXPECT_GT(short_errors, long_errors + 3);
  EXPECT_LE(long_errors, 3u);
}

TEST(CodedDecoder, MarginGrowsWithGain) {
  CodedSpec weak;
  weak.gain = 0.2;
  CodedSpec strong;
  strong.gain = 2.0;
  auto margin_of = [](const CodedSpec& spec) {
    auto cfg = config_for(spec);
    const auto syn = make_coded(spec);
    cfg.known_start = syn.frame_start;
    CodedUplinkDecoder dec(cfg);
    const auto res = dec.decode_conditioned(syn.ct);
    double m = 0.0;
    for (double x : res.margin) m += x;
    return m;
  };
  EXPECT_GT(margin_of(strong), 2.0 * margin_of(weak));
}

TEST(CodedDecoder, SelectsGoodStreams) {
  CodedSpec spec;
  spec.num_streams = 12;
  spec.good_streams = 4;
  spec.noise = 0.2;
  auto cfg = config_for(spec);
  cfg.num_good_streams = 4;
  const auto syn = make_coded(spec);
  cfg.known_start = syn.frame_start;
  CodedUplinkDecoder dec(cfg);
  const auto res = dec.decode_conditioned(syn.ct);
  ASSERT_TRUE(res.found);
  for (std::size_t s : res.streams) {
    EXPECT_LT(s, 4u);
  }
}

TEST(CodedDecoder, EmptyTraceNotFound) {
  CodedSpec spec;
  CodedUplinkDecoder dec(config_for(spec));
  EXPECT_FALSE(dec.decode_conditioned(ConditionedTrace{}).found);
}

TEST(CodedDecoder, FrameGeometryHelpers) {
  CodedDecoderConfig cfg;
  cfg.codes = make_orthogonal_pair(20);
  cfg.payload_bits = 16;
  cfg.chip_duration_us = TimeUs{1'000};
  EXPECT_EQ(cfg.chips_per_bit(), 20u);
  EXPECT_EQ(cfg.frame_bits(), 13u + 16u);
  EXPECT_EQ(cfg.frame_chips(), 29u * 20u);
  EXPECT_EQ(cfg.frame_duration_us(), TimeUs{580'000});
}

class CodedLengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodedLengthSweep, RoundtripAtModerateNoise) {
  CodedSpec spec;
  spec.code_length = GetParam();
  spec.noise = 0.8;
  spec.payload_bits = 6;
  auto cfg = config_for(spec);
  const auto syn = make_coded(spec);
  cfg.known_start = syn.frame_start;
  CodedUplinkDecoder dec(cfg);
  const auto res = dec.decode_conditioned(syn.ct);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.payload, syn.payload) << "L=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Lengths, CodedLengthSweep,
                         ::testing::Values(4, 8, 20, 64, 150));

TEST(CodedDecoder, CtorRejectsInvertedSearchWindow) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  CodedSpec spec;
  auto cfg = config_for(spec);
  cfg.search_from = TimeUs{60'000};
  cfg.search_to = TimeUs{10'000};
  EXPECT_THROW(CodedUplinkDecoder{cfg}, ContractViolation);
  cfg.search_from.reset();
  EXPECT_NO_THROW(CodedUplinkDecoder{cfg});
}

TEST(CodedDecoder, SyncTieBreakKeepsEarliestFrameStart) {
  // Two bit-identical noiseless copies of the same coded frame, both on
  // the sync-step grid: the chip-correlation sync scores tie exactly, and
  // the pinned first-max-wins rule (strict `>`) must keep the earlier
  // start.
  CodedSpec spec;
  spec.num_streams = 1;
  spec.good_streams = 1;
  spec.payload_bits = 6;
  const auto codes = make_orthogonal_pair(spec.code_length);
  const BitVec payload = random_bits(spec.payload_bits, 21);
  BitVec frame = barker13();
  frame.insert(frame.end(), payload.begin(), payload.end());
  BitVec chips;
  for (std::uint8_t b : frame) {
    const BitVec& c = b ? codes.one : codes.zero;
    chips.insert(chips.end(), c.begin(), c.end());
  }

  const TimeUs first{30'000};
  // Offset by a multiple of the chip duration (and of the default
  // chip/2 sync step) so both starts land on the search grid.
  const TimeUs second = first + TimeUs{400'000};
  std::vector<TimeUs> ts;
  const TimeUs end = second +
                     spec.chip_us * static_cast<std::int64_t>(chips.size()) +
                     TimeUs{30'000};
  for (std::int64_t t = 0; t < end.ticks(); t += 500) {
    ts.push_back(TimeUs{t});
  }
  std::vector<double> xs;
  for (const TimeUs t : ts) {
    double v = 0.0;
    for (const TimeUs start : {first, second}) {
      if (t >= start) {
        const auto chip = static_cast<std::size_t>((t - start) / spec.chip_us);
        if (chip < chips.size()) v = chips[chip] ? 1.0 : -1.0;
      }
    }
    xs.push_back(v);
  }
  const ConditionedTrace ct = test::from_columns(std::move(ts), {xs});

  auto cfg = config_for(spec);
  cfg.num_good_streams = 1;
  ASSERT_FALSE(cfg.known_start.has_value());  // exercise the sync search
  const CodedUplinkDecoder dec(cfg);
  const auto res = dec.decode_conditioned(ct);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.start_us, first);
  EXPECT_EQ(res.payload, payload);
}

}  // namespace
}  // namespace wb::reader
