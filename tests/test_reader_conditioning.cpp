#include "reader/conditioning.h"

#include <cmath>
#include <span>

#include <gtest/gtest.h>

#include "sim/rng.h"
#include "util/check.h"
#include "util/dsp.h"

namespace wb::reader {
namespace {

wifi::CaptureRecord record_at(TimeUs t, double csi, double rssi,
                              bool has_csi = true) {
  wifi::CaptureRecord r;
  r.timestamp_us = t;
  r.has_csi = has_csi;
  for (auto& ant : r.csi) ant.fill(csi);
  r.rssi_dbm.fill(rssi);
  return r;
}

TEST(Conditioning, RemovesConstantOffset) {
  std::vector<TimeUs> ts;
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) {
    ts.push_back(TimeUs{i * 1'000});
    xs.push_back(5.0);
  }
  const auto y = remove_time_moving_average(ts, xs, TimeUs{20'000});
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Conditioning, CenteredWindowHasNoBaselineCreep) {
  // Regression test for the trailing-window bug: a square wave whose
  // recent history is imbalanced (long run of ones) must keep the correct
  // sign on every bit. With a trailing window, bits after the long run
  // flipped sign.
  std::vector<TimeUs> ts;
  std::vector<double> xs;
  // Pattern: ...101010 111111111 0 1...  each "bit" = 10 samples.
  const std::string pattern = "10101010111111111010";
  int k = 0;
  for (char c : pattern) {
    for (int i = 0; i < 10; ++i, ++k) {
      ts.push_back(TimeUs{k * 300});
      xs.push_back(c == '1' ? 1.0 : 0.0);
    }
  }
  const auto y = remove_time_moving_average(ts, xs, TimeUs{30'000});  // 100 samples
  // Check the '0' bit right after the run of ones (samples 170-179) is
  // negative and the '1' bit after it positive.
  for (int i = 172; i < 178; ++i) EXPECT_LT(y[i], 0.0) << i;
  for (int i = 182; i < 188; ++i) EXPECT_GT(y[i], 0.0) << i;
}

TEST(Conditioning, TracksSlowDrift) {
  // A linear ramp (drift) is strongly suppressed.
  std::vector<TimeUs> ts;
  std::vector<double> xs;
  for (int i = 0; i < 1'000; ++i) {
    ts.push_back(TimeUs{i * 1'000});
    xs.push_back(0.01 * i);
  }
  const auto y = remove_time_moving_average(ts, xs, TimeUs{50'000});
  for (std::size_t i = 100; i + 100 < y.size(); ++i) {
    EXPECT_NEAR(y[i], 0.0, 0.05);
  }
}

TEST(Conditioning, HandlesIrregularTimestamps) {
  std::vector<TimeUs> ts = {TimeUs{0}, TimeUs{1'000}, TimeUs{50'000},
                            TimeUs{51'000}, TimeUs{200'000}};
  std::vector<double> xs = {1.0, 1.0, 1.0, 1.0, 1.0};
  const auto y = remove_time_moving_average(ts, xs, TimeUs{10'000});
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Conditioning, CsiTraceShapes) {
  wifi::CaptureTrace trace;
  for (int i = 0; i < 50; ++i) {
    trace.push_back(record_at(TimeUs{i * 1'000}, 4.0 + (i % 2), -40.0));
  }
  const auto ct = condition(trace, MeasurementSource::kCsi, TimeUs{20'000});
  EXPECT_EQ(ct.num_streams(), wifi::kNumCsiStreams);
  EXPECT_EQ(ct.num_packets(), 50u);
  for (const auto& s : ct.streams) {
    EXPECT_EQ(s.size(), 50u);
  }
}

TEST(Conditioning, RssiTraceHasAntennaStreams) {
  wifi::CaptureTrace trace;
  for (int i = 0; i < 50; ++i) {
    trace.push_back(record_at(TimeUs{i * 1'000}, 4.0, -40.0 - (i % 2)));
  }
  const auto ct = condition(trace, MeasurementSource::kRssi, TimeUs{20'000});
  EXPECT_EQ(ct.num_streams(), phy::kNumAntennas);
}

TEST(Conditioning, CsiSkipsRecordsWithoutCsi) {
  wifi::CaptureTrace trace;
  for (int i = 0; i < 20; ++i) {
    trace.push_back(record_at(TimeUs{i * 1'000}, 4.0, -40.0, i % 2 == 0));
  }
  const auto ct = condition(trace, MeasurementSource::kCsi, TimeUs{20'000});
  EXPECT_EQ(ct.num_packets(), 10u);
}

TEST(Conditioning, RssiKeepsAllRecords) {
  wifi::CaptureTrace trace;
  for (int i = 0; i < 20; ++i) {
    trace.push_back(record_at(TimeUs{i * 1'000}, 4.0, -40.0, i % 2 == 0));
  }
  const auto ct = condition(trace, MeasurementSource::kRssi, TimeUs{20'000});
  EXPECT_EQ(ct.num_packets(), 20u);
}

TEST(Conditioning, NormalisedToUnitMeanAbs) {
  wifi::CaptureTrace trace;
  for (int i = 0; i < 200; ++i) {
    trace.push_back(record_at(TimeUs{i * 1'000}, 4.0 + 0.5 * (i % 2), -40.0));
  }
  const auto ct = condition(trace, MeasurementSource::kCsi, TimeUs{20'000});
  double mad = 0.0;
  for (double v : ct.streams[0]) mad += std::abs(v);
  mad /= static_cast<double>(ct.streams[0].size());
  EXPECT_NEAR(mad, 1.0, 1e-9);
}

TEST(Conditioning, SquareWaveMapsNearPlusMinusOne) {
  wifi::CaptureTrace trace;
  for (int i = 0; i < 400; ++i) {
    const double bit = (i / 10) % 2 ? 1.0 : 0.0;
    trace.push_back(record_at(TimeUs{i * 1'000}, 4.0 + bit, -40.0));
  }
  const auto ct = condition(trace, MeasurementSource::kCsi, TimeUs{100'000});
  // Interior samples should sit near +1 / -1 (paper §3.2's target).
  for (std::size_t i = 100; i < 300; ++i) {
    EXPECT_NEAR(std::abs(ct.streams[0][i]), 1.0, 0.25) << i;
  }
}

TEST(Conditioning, EmptyTrace) {
  const auto ct = condition({}, MeasurementSource::kCsi, TimeUs{20'000});
  EXPECT_EQ(ct.num_packets(), 0u);
  EXPECT_EQ(ct.num_streams(), wifi::kNumCsiStreams);
}

// -- stream-batched kernels (DESIGN.md §15) -----------------------------

/// Irregular but sorted timestamps so the window cursors actually move.
std::vector<TimeUs> make_ts(std::size_t n) {
  std::vector<TimeUs> ts(n);
  std::int64_t t = 0;
  for (std::size_t k = 0; k < n; ++k) {
    t += 200 + 150 * static_cast<std::int64_t>(k % 7);
    ts[k] = TimeUs{t};
  }
  return ts;
}

std::vector<double> make_matrix(std::size_t n, std::size_t stride) {
  std::vector<double> rows(n * stride);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t c = 0; c + 1 < stride; ++c) {
      rows[k * stride + c] =
          std::sin(0.23 * static_cast<double>(k * stride + c)) +
          0.05 * static_cast<double>(c);
    }
    rows[k * stride + stride - 1] = 0.0;  // padding column
  }
  return rows;
}

TEST(Conditioning, RowsMovingAverageMatchesPerColumnSpanKernel) {
  const std::size_t stride = 8;
  const TimeUs w{2'000};
  // Lengths around the pack width cover the pack loop, the scalar
  // remainder, and the degenerate single-row matrix.
  for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                              std::size_t{37}}) {
    const auto ts = make_ts(n);
    const auto rows = make_matrix(n, stride);
    std::vector<double> out(rows.size(), -99.0), sums(stride), mads(stride);
    remove_time_moving_average_rows(ts, rows, stride, w, sums, out, mads);
    for (std::size_t c = 0; c < stride; ++c) {
      std::vector<double> col(n), want(n);
      for (std::size_t k = 0; k < n; ++k) col[k] = rows[k * stride + c];
      remove_time_moving_average(std::span<const TimeUs>(ts),
                                 std::span<const double>(col), w, want);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(out[k * stride + c], want[k]) << "col " << c << " k " << k;
      }
    }
  }
}

TEST(Conditioning, FusedMadOverloadMatchesKernelSequence) {
  // The fused divisors equal mad_rows run over the finished output.
  const std::size_t stride = 8, n = 37;
  const auto ts = make_ts(n);
  const auto rows = make_matrix(n, stride);
  const TimeUs w{2'000};

  std::vector<double> out(rows.size()), sums(stride);
  std::vector<double> mads_fused(stride, -99.0), mads_seq(stride);
  remove_time_moving_average_rows(ts, rows, stride, w, sums, out,
                                  mads_fused);
  mad_rows(out, stride, n, mads_seq);
  EXPECT_EQ(mads_seq, mads_fused);
}

TEST(Conditioning, FusedMadOverloadEmptyInputYieldsSafeDivisors) {
  std::vector<double> sums(8), mads(8, -99.0);
  remove_time_moving_average_rows({}, std::span<const double>(), 8,
                                  TimeUs{2'000}, sums, std::span<double>(),
                                  mads);
  // No rows: every column is degenerate, so every divisor is the safe 1.0.
  for (double v : mads) EXPECT_EQ(v, 1.0);
}

TEST(Conditioning, SpanKernelsRejectAliasedOutputs) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  const std::size_t stride = 8, n = 5;
  const auto ts = make_ts(n);
  auto rows = make_matrix(n, stride);
  std::vector<double> sums(stride), mads(stride);

  // Span variant: the sliding window re-reads behind the cursor.
  std::vector<double> xs(n, 1.0);
  EXPECT_THROW(remove_time_moving_average(std::span<const TimeUs>(ts),
                                          std::span<const double>(xs),
                                          TimeUs{2'000},
                                          std::span<double>(xs)),
               ContractViolation);
  // Rows variant: output over the input matrix.
  EXPECT_THROW(remove_time_moving_average_rows(
                   ts, rows, stride, TimeUs{2'000}, sums,
                   std::span<double>(rows.data(), rows.size()), mads),
               ContractViolation);
  // Rows variant: mad vector aliasing the window sums.
  std::vector<double> out(rows.size());
  EXPECT_THROW(remove_time_moving_average_rows(
                   ts, rows, stride, TimeUs{2'000}, sums, out,
                   std::span<double>(sums.data(), stride)),
               ContractViolation);
}

/// Composes the documented pipeline out of the retained scalar kernels:
/// per stream, collect -> remove_time_moving_average -> normalize_mad.
ConditionedTrace condition_scalar_reference(const wifi::CaptureTrace& trace,
                                            MeasurementSource source,
                                            TimeUs window_us) {
  ConditionedTrace out;
  const bool want_csi = source == MeasurementSource::kCsi;
  const std::size_t num_streams =
      want_csi ? wifi::kNumCsiStreams : phy::kNumAntennas;
  for (const auto& rec : trace) {
    if (want_csi && !rec.has_csi) continue;
    out.timestamps.push_back(rec.timestamp_us);
  }
  out.streams.resize(num_streams);
  std::vector<double> raw, centered;
  for (std::size_t s = 0; s < num_streams; ++s) {
    raw.clear();
    for (const auto& rec : trace) {
      if (want_csi && !rec.has_csi) continue;
      raw.push_back(want_csi ? rec.csi[s / phy::kNumSubchannels]
                                      [s % phy::kNumSubchannels]
                             : rec.rssi_dbm[s]);
    }
    centered.assign(raw.size(), 0.0);
    remove_time_moving_average(std::span<const TimeUs>(out.timestamps),
                               std::span<const double>(raw), window_us,
                               centered);
    out.streams[s].assign(raw.size(), 0.0);
    normalize_mad(centered, out.streams[s]);
  }
  return out;
}

TEST(Conditioning, BatchedPipelineBitIdenticalToScalarReference) {
  // The whole point of the stream-batched kernels: condition() must equal
  // the per-stream scalar composition EXACTLY, for CSI (with skipped
  // records) and RSSI alike.
  sim::RngStream rng(11);
  wifi::CaptureTrace trace;
  for (int i = 0; i < 300; ++i) {
    auto r = record_at(TimeUs{i * 777}, 0.0, 0.0, i % 5 != 0);
    for (auto& ant : r.csi) {
      for (auto& v : ant) v = 8.0 + rng.normal();
    }
    for (auto& v : r.rssi_dbm) v = -42.0 + rng.normal();
    trace.push_back(r);
  }
  for (const auto source :
       {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
    const auto got = condition(trace, source, TimeUs{20'000});
    const auto want = condition_scalar_reference(trace, source, TimeUs{20'000});
    ASSERT_EQ(got.timestamps, want.timestamps);
    ASSERT_EQ(got.streams.size(), want.streams.size());
    for (std::size_t s = 0; s < want.streams.size(); ++s) {
      EXPECT_EQ(got.streams[s], want.streams[s]) << "stream " << s;
    }
  }
}

TEST(Conditioning, SinglePacketTrace) {
  wifi::CaptureTrace trace;
  trace.push_back(record_at(TimeUs{1'000}, 4.0, -40.0));
  const auto ct = condition(trace, MeasurementSource::kCsi, TimeUs{20'000});
  EXPECT_EQ(ct.num_packets(), 1u);
  // One sample: the moving average equals the sample, so every stream
  // conditions to exactly zero.
  for (const auto& s : ct.streams) {
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s[0], 0.0);
  }
}

TEST(Conditioning, AllZeroStreamsSurviveConditioning) {
  // Zero CSI and RSSI everywhere: centered is zero, the MAD divisor
  // degenerates to the safe 1.0, and the output is exact zeros (no NaNs).
  wifi::CaptureTrace trace;
  for (int i = 0; i < 40; ++i) {
    trace.push_back(record_at(TimeUs{i * 1'000}, 0.0, 0.0));
  }
  for (const auto source :
       {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
    const auto ct = condition(trace, source, TimeUs{20'000});
    for (const auto& s : ct.streams) {
      for (double v : s) EXPECT_EQ(v, 0.0);
    }
  }
}

}  // namespace
}  // namespace wb::reader
