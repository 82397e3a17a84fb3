#include "reader/conditioning.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "reader/decode_workspace.h"
#include "reference/reference.h"
#include "sim/rng.h"
#include "trace_columns.h"
#include "util/check.h"

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

/// The reference's centering stage over one series.
std::vector<double> center(const std::vector<TimeUs>& ts,
                           const std::vector<double>& xs, TimeUs window_us) {
  std::vector<double> out(xs.size());
  reference::center(ts, xs, window_us, out);
  return out;
}

TEST(Conditioning, RemovesConstantOffset) {
  std::vector<TimeUs> ts;
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) {
    ts.push_back(TimeUs{i * 1'000});
    xs.push_back(5.0);
  }
  const auto y = center(ts, xs, TimeUs{20'000});
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
  const auto y = center(ts, xs, TimeUs{30'000});  // 100 samples
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
  const auto y = center(ts, xs, TimeUs{50'000});
  for (std::size_t i = 100; i + 100 < y.size(); ++i) {
    EXPECT_NEAR(y[i], 0.0, 0.05);
  }
}

TEST(Conditioning, HandlesIrregularTimestamps) {
  std::vector<TimeUs> ts = {TimeUs{0}, TimeUs{1'000}, TimeUs{50'000},
                            TimeUs{51'000}, TimeUs{200'000}};
  std::vector<double> xs = {1.0, 1.0, 1.0, 1.0, 1.0};
  const auto y = center(ts, xs, TimeUs{10'000});
  for (double v : y) EXPECT_NEAR(v, 0.0, 1e-12);
}

/// The reference's normalising stage over one series.
std::vector<double> normalize_mad(const std::vector<double>& x) {
  std::vector<double> out(x.size());
  reference::normalize_mad(x, out);
  return out;
}

TEST(NormalizeMad, UnitMeanAbsolute) {
  const std::vector<double> x = {1.0, -3.0, 2.0, -2.0};
  const auto y = normalize_mad(x);
  double mad = 0.0;
  for (double v : y) mad += std::abs(v);
  mad /= static_cast<double>(y.size());
  EXPECT_NEAR(mad, 1.0, 1e-12);
}

TEST(NormalizeMad, AllZerosUnchanged) {
  const std::vector<double> x = {0.0, 0.0, 0.0};
  const auto y = normalize_mad(x);
  for (double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(NormalizeMad, PreservesSignPattern) {
  const std::vector<double> x = {5.0, -1.0, 0.5};
  const auto y = normalize_mad(x);
  EXPECT_GT(y[0], 0.0);
  EXPECT_LT(y[1], 0.0);
  EXPECT_GT(y[2], 0.0);
}

TEST(Conditioning, CsiTraceShapes) {
  wifi::CaptureTrace trace;
  for (int i = 0; i < 50; ++i) {
    trace.push_back(record_at(TimeUs{i * 1'000}, 4.0 + (i % 2), -40.0));
  }
  const auto ct = condition(trace, MeasurementSource::kCsi, TimeUs{20'000});
  EXPECT_EQ(ct.num_streams(), wifi::kNumCsiStreams);
  EXPECT_EQ(ct.num_packets(), 50u);
  for (const auto& s : test::columns(ct)) {
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
  const auto s0 = test::column(ct, 0);
  double mad = 0.0;
  for (double v : s0) mad += std::abs(v);
  mad /= static_cast<double>(s0.size());
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
    EXPECT_NEAR(std::abs(ct.at(i, 0)), 1.0, 0.25) << i;
  }
}

TEST(Conditioning, EmptyTrace) {
  const auto ct = condition({}, MeasurementSource::kCsi, TimeUs{20'000});
  EXPECT_EQ(ct.num_packets(), 0u);
  EXPECT_EQ(ct.num_streams(), wifi::kNumCsiStreams);
}

// -- the in-place kernel and its kept span (DESIGN.md §15) ---------------

/// The reference reader's conditioning of a whole trace.
reference::StreamTrace reference_condition(const wifi::CaptureTrace& trace,
                                           MeasurementSource source,
                                           TimeUs window_us) {
  reference::ConditionScratch scratch;
  reference::StreamTrace out;
  reference::condition(trace, source, window_us, scratch, out);
  return out;
}

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

/// Records at make_ts(n) with distinct values in every CSI and RSSI lane.
/// Every fourth record is a beacon when `beacons` is set; sub-channel 7 of
/// antenna 1 is constant, so its stream centers to zero and divides by
/// the degenerate MAD's 1.0; `loud_from` scales the records from that
/// index on by 50, so a divisor taken over the kept rows alone would be
/// far off the whole trace's.
wifi::CaptureTrace make_trace(std::size_t n, bool beacons,
                              std::size_t loud_from = SIZE_MAX) {
  const auto ts = make_ts(n);
  wifi::CaptureTrace trace;
  for (std::size_t k = 0; k < n; ++k) {
    const double gain = k >= loud_from ? 50.0 : 1.0;
    auto r = record_at(ts[k], 0.0, 0.0, !(beacons && k % 4 == 1));
    for (std::size_t s = 0; s < wifi::kNumCsiStreams; ++s) {
      r.csi[wifi::stream_antenna(s)][wifi::stream_subchannel(s)] =
          gain * std::sin(0.23 * static_cast<double>(k * 97 + s)) +
          0.05 * static_cast<double>(s);
    }
    r.csi[1][7] = 3.0;
    for (std::size_t a = 0; a < phy::kNumAntennas; ++a) {
      r.rssi_dbm[a] =
          -40.0 + gain * std::cos(0.31 * static_cast<double>(k * 5 + a));
    }
    trace.push_back(r);
  }
  return trace;
}

/// condition_into keeping [from, to) equals packets [lo, hi) of the
/// reference over the whole trace, bit for bit, where [lo, hi) are the
/// reference's packets stamped in [from, to).
void expect_kept_rows_match(const wifi::CaptureTrace& trace,
                            MeasurementSource source, TimeUs window,
                            TimeUs from, TimeUs to, DecodeWorkspace& ws) {
  const auto whole = reference_condition(trace, source, window);
  const auto& ts = whole.timestamps;
  const auto lo = std::lower_bound(ts.begin(), ts.end(), from) - ts.begin();
  const auto hi =
      std::max(lo, std::lower_bound(ts.begin(), ts.end(), to) - ts.begin());
  reference::StreamTrace want;
  want.timestamps.assign(ts.begin() + lo, ts.begin() + hi);
  for (const auto& xs : whole.streams) {
    want.streams.emplace_back(xs.begin() + lo, xs.begin() + hi);
  }
  ConditionedTrace got;
  collect_records(trace, source, ws);
  condition_records(source, window, ws, got, from, to);
  reference::expect_bitwise(got, want);
}

/// Keep ranges over the usable packets `ts`: the whole trace (the
/// defaults), an empty one, a single row, and each end.
std::vector<std::pair<TimeUs, TimeUs>> keep_ranges(
    const std::vector<TimeUs>& ts) {
  const TimeUs first = ts.front();
  const TimeUs mid = ts[ts.size() / 2];
  return {{-TimeUs::max(), TimeUs::max()},
          {mid, mid},
          {mid, mid + TimeUs{1}},
          {first - TimeUs{1'000}, mid},
          {mid, ts.back() + TimeUs{1'000}}};
}

std::vector<TimeUs> usable_ts(const wifi::CaptureTrace& trace,
                              MeasurementSource source) {
  std::vector<TimeUs> ts;
  for (const auto& rec : trace) {
    if (source == MeasurementSource::kCsi && !rec.has_csi) continue;
    ts.push_back(rec.timestamp_us);
  }
  return ts;
}

TEST(Conditioning, RowsMovingAverageMatchesPerColumnSpanKernel) {
  // The in-place kernel centers every lane as the reference centers one
  // series, then divides it as the reference normalises it. Lengths
  // around the pack width cover the pack loop, the scalar remainder, and
  // the one-row trace; beacons make the CSI record list skip records.
  const TimeUs w{2'000};
  DecodeWorkspace ws;
  for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                              std::size_t{37}}) {
    for (const bool beacons : {false, true}) {
      const auto trace = make_trace(n, beacons);
      for (const auto source :
           {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
        for (const auto& [from, to] : keep_ranges(usable_ts(trace, source))) {
          SCOPED_TRACE(::testing::Message()
                       << "n " << n << " beacons " << beacons << " rssi "
                       << (source == MeasurementSource::kRssi) << " keep ["
                       << from << ", " << to << ")");
          expect_kept_rows_match(trace, source, w, from, to, ws);
        }
      }
    }
  }
  // The defaults keep every packet.
  const auto trace = make_trace(37, true);
  ConditionedTrace whole;
  condition_into(trace, MeasurementSource::kCsi, w, ws, whole);
  EXPECT_EQ(whole.timestamps, usable_ts(trace, MeasurementSource::kCsi));
}

TEST(Conditioning, FusedMadOverloadMatchesKernelSequence) {
  // The MAD divisor is summed over every usable record, not over the kept
  // rows: with the trace's tail 50x louder, a divisor taken over either
  // end alone would miss by far. Kept rows still equal the reference's
  // normalisation of the whole centered series, including the constant
  // stream's exact 1.0 divisor.
  const TimeUs w{2'000};
  DecodeWorkspace ws;
  const auto trace = make_trace(200, true, /*loud_from=*/120);
  for (const auto source :
       {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
    const auto ts = usable_ts(trace, source);
    for (const auto& [from, to] : keep_ranges(ts)) {
      SCOPED_TRACE(::testing::Message()
                   << "rssi " << (source == MeasurementSource::kRssi)
                   << " keep [" << from << ", " << to << ")");
      expect_kept_rows_match(trace, source, w, from, to, ws);
    }
    // A single kept row, at the quiet start and at the loud end.
    for (const TimeUs t : {ts.front(), ts.back()}) {
      expect_kept_rows_match(trace, source, w, t, t + TimeUs{1}, ws);
    }
  }
}

TEST(Conditioning, FusedMadOverloadEmptyInputYieldsSafeDivisors) {
  // No usable record: every column is degenerate, so every divisor is the
  // safe 1.0 — even in a workspace warmed on a real trace — and the
  // output has every stream, each with no packet.
  DecodeWorkspace ws;
  ConditionedTrace out;
  condition_into(make_trace(37, false), MeasurementSource::kCsi,
                 TimeUs{2'000}, ws, out);
  wifi::CaptureTrace beacons_only;
  for (int i = 0; i < 5; ++i) {
    beacons_only.push_back(record_at(TimeUs{i * 1'000}, 4.0, -40.0, false));
  }
  condition_into(beacons_only, MeasurementSource::kCsi, TimeUs{2'000}, ws,
                 out);
  EXPECT_EQ(out.num_packets(), 0u);
  ASSERT_EQ(out.num_streams(), wifi::kNumCsiStreams);
  for (const auto& s : test::columns(out)) EXPECT_TRUE(s.empty());
  for (double v : ws.row_mads) EXPECT_EQ(v, 1.0);
  condition_into({}, MeasurementSource::kRssi, TimeUs{2'000}, ws, out);
  EXPECT_EQ(out.num_packets(), 0u);
  ASSERT_EQ(out.num_streams(), phy::kNumAntennas);
  for (double v : ws.row_mads) EXPECT_EQ(v, 1.0);
}

TEST(Conditioning, ConditionIntoRejectsDecreasingTimestampsAndBadWindow) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  DecodeWorkspace ws;
  ConditionedTrace out;
  auto trace = make_trace(5, false);
  EXPECT_THROW(condition_into(trace, MeasurementSource::kCsi, TimeUs{}, ws,
                              out),
               ContractViolation);
  std::swap(trace[1].timestamp_us, trace[3].timestamp_us);
  EXPECT_THROW(condition_into(trace, MeasurementSource::kRssi,
                              TimeUs{2'000}, ws, out),
               ContractViolation);
  // For CSI only usable records must be ordered: a beacon out of order is
  // skipped before the check.
  trace = make_trace(5, false);
  trace[2].has_csi = false;
  trace[2].timestamp_us = TimeUs{0};
  condition_into(trace, MeasurementSource::kCsi, TimeUs{2'000}, ws, out);
  EXPECT_EQ(out.num_packets(), 4u);
}

TEST(Conditioning, BatchedPipelineBitIdenticalToScalarReference) {
  // The whole point of the stream-batched kernels: condition() must equal
  // the reference's per-stream conditioning EXACTLY, for CSI (with skipped
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
    reference::expect_bitwise(
        condition(trace, source, TimeUs{20'000}),
        reference_condition(trace, source, TimeUs{20'000}));
  }
}

TEST(Conditioning, CenteredValueDependsOnlyOnItsWindow) {
  // Exact window sums (DESIGN.md §15): dropping the capture's first k
  // records leaves the centered value of every record whose window lies
  // inside both captures bit for bit unchanged. A running double sum
  // failed this: its rounding depended on where the capture started.
  sim::RngStream rng(33);
  const TimeUs window{20'000};
  std::vector<TimeUs> ts;
  std::vector<double> xs;
  for (int i = 0; i < 400; ++i) {
    ts.push_back(TimeUs{i * 333});
    xs.push_back(20.0 + 0.013 * i + 0.7 * rng.normal());
  }
  const std::vector<double> full = center(ts, xs, window);
  const std::size_t per_window = 61;  // records in 20 ms at 333 us
  for (const std::size_t k : {std::size_t{1}, std::size_t{17}, per_window,
                              2 * per_window}) {
    SCOPED_TRACE(k);
    const std::vector<TimeUs> ts_k(ts.begin() + static_cast<long>(k),
                                   ts.end());
    const std::vector<double> xs_k(xs.begin() + static_cast<long>(k),
                                   xs.end());
    const std::vector<double> cut = center(ts_k, xs_k, window);
    std::size_t compared = 0;
    for (std::size_t i = k; i < ts.size(); ++i) {
      if (ts[i] - window / 2 < ts_k.front()) continue;  // window cut off
      EXPECT_EQ(std::bit_cast<std::uint64_t>(full[i]),
                std::bit_cast<std::uint64_t>(cut[i - k]))
          << "record " << i;
      ++compared;
    }
    EXPECT_GT(compared, 200u);
  }

  // The product's half. Its rows leave divided by the MAD, so the
  // property shows through ScanConditioner: it sums the MAD steps of its
  // closed blocks and the window at its cursor while the capture is
  // whole, keeps both across trim() of the first k records, and
  // re-centers only the records whose window lost one. Its rows equal
  // condition_records on the cut capture only if every other record
  // keeps its centered value bit for bit.
  wifi::CaptureTrace trace;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    auto r = record_at(ts[i], 0.0, 0.0, i % 9 != 4);
    for (auto& ant : r.csi) {
      for (auto& v : ant) v = xs[i] + 0.3 * rng.normal();
    }
    for (auto& v : r.rssi_dbm) v = -40.0 + xs[i] + 0.3 * rng.normal();
    trace.push_back(r);
  }
  const TimeUs keep_from = ts[360];
  for (const auto source :
       {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{17}, per_window,
                                2 * per_window}) {
      SCOPED_TRACE(::testing::Message()
                   << "k " << k << " rssi "
                   << (source == MeasurementSource::kRssi));
      ScanConditioner scans(source, window);
      wifi::CaptureTrace buffer = trace;
      DecodeWorkspace ws;
      ConditionedTrace got;
      ConditionedTrace want;
      collect_records(buffer, source, ws);
      scans.condition(ws, got, keep_from, TimeUs::max());
      scans.trim(buffer, k);
      buffer.erase(buffer.begin(), buffer.begin() + static_cast<long>(k));
      const std::uint64_t before = scans.records_centered();
      collect_records(buffer, source, ws);
      scans.condition(ws, got, keep_from, TimeUs::max());
      condition_records(source, window, ws, want, keep_from, TimeUs::max());
      EXPECT_EQ(got.timestamps, want.timestamps);
      reference::expect_bitwise(got.rows, want.rows);
      // A closed block of the whole capture was reused, not re-centered.
      EXPECT_LE(scans.records_centered() - before,
                ws.records.size() - ScanConditioner::kScanBlockRecords);
    }
  }
}

TEST(Conditioning, MadSumIsExactPastTheInt64Range) {
  // 2^17 records of +-2^16 in one window center to +-2^16 each: 2^46
  // steps of 2^-30, so a lane's MAD sum reaches 2^63 steps, one past the
  // int64 range. Both conditioners fold their int64 lanes into 128-bit
  // sums, so the divisor is exactly 2^16 and every row exactly +-1.
  const auto plus = record_at(TimeUs{0}, 0.0, wifi::kMaxMeasurementMagnitude);
  const auto minus =
      record_at(TimeUs{0}, 0.0, -wifi::kMaxMeasurementMagnitude);
  DecodeWorkspace ws;
  ws.records.resize(std::size_t{1} << 17);
  for (std::size_t k = 0; k < ws.records.size(); ++k) {
    ws.records[k] = k % 2 == 0 ? &plus : &minus;
  }
  const TimeUs window{20'000};
  ConditionedTrace one_shot;
  condition_records(MeasurementSource::kRssi, window, ws, one_shot,
                    TimeUs{0}, TimeUs::max());
  ScanConditioner scans(MeasurementSource::kRssi, window);
  ConditionedTrace scanned;
  scans.condition(ws, scanned, TimeUs{0}, TimeUs::max());
  for (const ConditionedTrace* ct : {&one_shot, &scanned}) {
    ASSERT_EQ(ct->num_packets(), ws.records.size());
    std::size_t wrong = 0;
    for (std::size_t k = 0; k < ct->num_packets(); ++k) {
      for (std::size_t s = 0; s < ct->num_streams(); ++s) {
        wrong += ct->at(k, s) == (k % 2 == 0 ? 1.0 : -1.0) ? 0 : 1;
      }
    }
    EXPECT_EQ(wrong, 0u);
  }
}

/// Replays `trace` into a buffer the way a streaming reader does: after
/// every `step` records, one ScanConditioner call keeps the rows from the
/// consumed point on, which then moves to `lag` behind the newest record,
/// and the records older than `history` behind it leave through trim().
/// Each call must equal condition_records on the same buffer bit for bit.
/// Returns the records the conditioner centered and, in `whole`, those a
/// whole-buffer scan centers.
std::uint64_t expect_scans_match(const wifi::CaptureTrace& trace,
                                 MeasurementSource source, TimeUs window,
                                 std::size_t step, TimeUs lag,
                                 TimeUs history, std::uint64_t& whole) {
  ScanConditioner scans(source, window);
  wifi::CaptureTrace buffer;
  DecodeWorkspace ws;
  ConditionedTrace got;
  ConditionedTrace want;
  TimeUs consumed{0};
  whole = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    buffer.push_back(trace[i]);
    if ((i + 1) % step != 0) continue;
    const TimeUs now = buffer.back().timestamp_us;
    collect_records(buffer, source, ws);
    whole += ws.records.size();
    scans.condition(ws, got, consumed, now);
    condition_records(source, window, ws, want, consumed, now);
    SCOPED_TRACE(i);
    EXPECT_EQ(got.timestamps, want.timestamps);
    EXPECT_EQ(got.num_streams(), want.num_streams());
    reference::expect_bitwise(got.rows, want.rows);
    // The kept span trails the newest record by `lag`, or by a quarter of
    // it after every fifth scan (a frame found near the newest record).
    const bool frame = (i + 1) / step % 5 == 0;
    consumed = std::max(consumed, now - (frame ? lag / 4 : lag));
    const TimeUs keep_from =
        consumed > history ? consumed - history : TimeUs{0};
    const auto first_kept = static_cast<std::size_t>(
        std::lower_bound(buffer.begin(), buffer.end(), keep_from,
                         [](const wifi::CaptureRecord& r, TimeUs t) {
                           return r.timestamp_us < t;
                         }) -
        buffer.begin());
    if (first_kept > 0) {
      scans.trim(buffer, first_kept);
      buffer.erase(buffer.begin(),
                   buffer.begin() + static_cast<long>(first_kept));
    }
  }
  return scans.records_centered();
}

TEST(ScanConditioner, EveryScanMatchesTheWholeBufferScan) {
  // make_ts steps ~425 us, so a 20 ms window holds ~47 records.
  const TimeUs window{20'000};
  const auto trace = make_trace(3'000, true, 1'700);
  for (const auto source :
       {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
    for (const TimeUs history : {window, TimeUs{45'000}, TimeUs{200'000}}) {
      for (const std::size_t step : {std::size_t{1}, std::size_t{23}}) {
        SCOPED_TRACE(testing::Message()
                     << "source " << static_cast<int>(source) << " history "
                     << history.ticks() << " step " << step);
        std::uint64_t whole = 0;
        const std::uint64_t centered = expect_scans_match(
            trace, source, window, step, TimeUs{8'000}, history, whole);
        // A buffer of many blocks re-centers under half of what a
        // whole-buffer scan centers.
        if (history.ticks() >= 200'000) {
          EXPECT_LT(centered, whole / 2);
        }
      }
    }
  }
}

TEST(ScanConditioner, CursorWindowHoldingADroppedRecordRestarts) {
  // Records 1 ms apart, a 20 ms window. The first call keeps rows from
  // record 64 on, so its cursor parks at 64 with record 63's window,
  // [53, 73] ms. Dropping records [0, 54) reaches up to record 63, so
  // only block 0 reopens, but the cursor's window still holds record 53:
  // the next call must not resume there.
  const TimeUs window{20'000};
  wifi::CaptureTrace buffer;
  for (int i = 0; i < 300; ++i) {
    buffer.push_back(record_at(TimeUs{i * 1'000}, 5.0 + (i * 7 % 11),
                               -40.0 - (i * 5 % 13)));
  }
  const TimeUs keep_from = buffer[64].timestamp_us;
  for (const auto source :
       {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
    ScanConditioner scans(source, window);
    wifi::CaptureTrace cut = buffer;
    DecodeWorkspace ws;
    ConditionedTrace got;
    ConditionedTrace want;
    collect_records(cut, source, ws);
    scans.condition(ws, got, keep_from, TimeUs::max());
    scans.trim(cut, 54);
    cut.erase(cut.begin(), cut.begin() + 54);
    collect_records(cut, source, ws);
    scans.condition(ws, got, keep_from, TimeUs::max());
    condition_records(source, window, ws, want, keep_from, TimeUs::max());
    reference::expect_bitwise(got.rows, want.rows);
  }
}

TEST(Conditioning, SinglePacketTrace) {
  wifi::CaptureTrace trace;
  trace.push_back(record_at(TimeUs{1'000}, 4.0, -40.0));
  const auto ct = condition(trace, MeasurementSource::kCsi, TimeUs{20'000});
  EXPECT_EQ(ct.num_packets(), 1u);
  // One sample: the moving average equals the sample, so every stream
  // conditions to exactly zero.
  for (const auto& s : test::columns(ct)) {
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
    for (const auto& s : test::columns(ct)) {
      for (double v : s) EXPECT_EQ(v, 0.0);
    }
  }
}

}  // namespace
}  // namespace wb::reader
