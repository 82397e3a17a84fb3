#include "reader/conditioning.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/forensics.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/check.h"

#include "reader/decode_workspace.h"
#include "util/dsp.h"
#include "util/simd.h"

namespace wb::reader {

void remove_time_moving_average(std::span<const TimeUs> ts,
                                std::span<const double> xs, TimeUs window_us,
                                std::span<double> out) {
  WB_REQUIRE(ts.size() == xs.size(),
             "one measurement per timestamp is required");
  WB_REQUIRE(out.size() == xs.size(), "output must cover every sample");
  WB_REQUIRE(!detail::spans_overlap(xs.data(), xs.size(), out.data(),
                                    out.size()),
             "out must not alias xs: the sliding window re-reads samples "
             "behind the cursor");
  WB_REQUIRE(window_us > TimeUs{},
             "moving-average window must be positive");
  WB_REQUIRE(std::is_sorted(ts.begin(), ts.end()),
             "capture timestamps must be non-decreasing");
  // Centered window. The paper's receiver subtracts a trailing 400 ms
  // average online; decoding offline we can center the same window, which
  // removes identical drift but avoids the trailing window's
  // data-dependent baseline creep (a trailing average over a frame edge
  // contains a varying mix of modulated and quiescent samples, which can
  // flip the apparent sign of bits after locally imbalanced runs).
  const TimeUs half = window_us / 2;
  std::size_t head = 0;  // first index inside [t_k - half, t_k + half]
  std::size_t tail = 0;  // one past the last index inside
  double sum = 0.0;
  for (std::size_t k = 0; k < xs.size(); ++k) {
    while (tail < xs.size() && ts[tail] <= ts[k] + half) {
      sum += xs[tail];
      ++tail;
    }
    while (ts[head] < ts[k] - half) {
      sum -= xs[head];
      ++head;
    }
    const double mean = sum / static_cast<double>(tail - head);
    out[k] = xs[k] - mean;
  }
}

std::vector<double> remove_time_moving_average(
    const std::vector<TimeUs>& ts, const std::vector<double>& xs,
    TimeUs window_us) {
  std::vector<double> out(xs.size());
  remove_time_moving_average(std::span<const TimeUs>(ts),
                             std::span<const double>(xs), window_us, out);
  return out;
}

namespace {

// Body of remove_time_moving_average_rows: `mad` accumulates |out| per
// column alongside the centering sweep; the accumulation reads each output
// value the instant it is produced, in the same row order wb::mad_rows
// would read the finished matrix, so the sums are bit-identical.
WB_SIMD_MULTIVERSION
void movavg_rows_impl(std::span<const TimeUs> ts, std::span<const double> rows,
                      std::size_t stride, TimeUs window_us,
                      std::span<double> sum_scratch,
                      std::span<double> out_rows, double* mad) {
  WB_REQUIRE(stride > 0 && stride % simd::kLanes == 0,
             "row stride must be a positive multiple of the pack width");
  WB_REQUIRE(rows.size() == ts.size() * stride,
             "rows must hold one stride-wide row per timestamp");
  WB_REQUIRE(out_rows.size() == rows.size(),
             "output must cover every sample");
  WB_REQUIRE(sum_scratch.size() == stride,
             "window-sum scratch needs one accumulator per lane column");
  WB_REQUIRE(!detail::spans_overlap(rows.data(), rows.size(),
                                    out_rows.data(), out_rows.size()),
             "out_rows must not alias rows: the sliding window re-reads "
             "samples behind the cursor");
  WB_REQUIRE(!detail::spans_overlap(sum_scratch.data(), sum_scratch.size(),
                                    out_rows.data(), out_rows.size()),
             "window-sum scratch must not alias the output");
  WB_REQUIRE(window_us > TimeUs{},
             "moving-average window must be positive");
  WB_REQUIRE(std::is_sorted(ts.begin(), ts.end()),
             "capture timestamps must be non-decreasing");
  using P = simd::dpack;
  const TimeUs half = window_us / 2;
  const std::size_t n = ts.size();
  std::size_t head = 0;  // first row inside [t_k - half, t_k + half]
  std::size_t tail = 0;  // one past the last row inside
  for (double& s : sum_scratch) s = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    // Same cursor advance and per-column add/retire order as the span
    // variant — the window bounds depend only on the shared timestamps,
    // which is what makes batching across columns free.
    while (tail < n && ts[tail] <= ts[k] + half) {
      const double* row = rows.data() + tail * stride;
      for (std::size_t g = 0; g < stride; g += simd::kLanes) {
        (P::load(sum_scratch.data() + g) + P::load(row + g))
            .store(sum_scratch.data() + g);
      }
      ++tail;
    }
    while (ts[head] < ts[k] - half) {
      const double* row = rows.data() + head * stride;
      for (std::size_t g = 0; g < stride; g += simd::kLanes) {
        (P::load(sum_scratch.data() + g) - P::load(row + g))
            .store(sum_scratch.data() + g);
      }
      ++head;
    }
    const P nwin = P::broadcast(static_cast<double>(tail - head));
    const double* x = rows.data() + k * stride;
    double* o = out_rows.data() + k * stride;
    for (std::size_t g = 0; g < stride; g += simd::kLanes) {
      const P out = P::load(x + g) - P::load(sum_scratch.data() + g) / nwin;
      out.store(o + g);
      (P::load(mad + g) + P::abs(out)).store(mad + g);
    }
  }
}

}  // namespace

void remove_time_moving_average_rows(std::span<const TimeUs> ts,
                                     std::span<const double> rows,
                                     std::size_t stride, TimeUs window_us,
                                     std::span<double> sum_scratch,
                                     std::span<double> out_rows,
                                     std::span<double> mad_out) {
  WB_REQUIRE(mad_out.size() == stride,
             "mad output needs one accumulator per lane column");
  WB_REQUIRE(!detail::spans_overlap(mad_out.data(), mad_out.size(),
                                    out_rows.data(), out_rows.size()),
             "mad output must not alias the output rows");
  WB_REQUIRE(!detail::spans_overlap(mad_out.data(), mad_out.size(),
                                    sum_scratch.data(), sum_scratch.size()),
             "mad output must not alias the window sums");
  for (double& m : mad_out) m = 0.0;
  movavg_rows_impl(ts, rows, stride, window_us, sum_scratch, out_rows,
                   mad_out.data());
  if (ts.empty()) {
    // No rows: every column is degenerate, same safe divisors mad_rows
    // produces on an empty matrix.
    for (double& m : mad_out) m = 1.0;
    return;
  }
  // Same divisor fixup as mad_rows: degenerate columns (mad <= 0) divide
  // by 1.0, an exact copy.
  const double n = static_cast<double>(ts.size());
  for (double& m : mad_out) {
    const double mad = m / n;
    m = mad <= 0.0 ? 1.0 : mad;
  }
}

namespace {

// Transpose the conditioned [packet][lane] rows back to the
// [stream][packet] vectors the decoders consume, dividing each column by
// its MAD on the way out — normalize_mad's divide fused into the
// transpose, one matrix pass instead of two. Each element still sees the
// same single IEEE divide by the same mad_rows divisor, so the output is
// bit-identical to normalize-then-copy. Reads are contiguous pack loads
// (stride is padded past num_streams, so the last group may cover inert
// padding columns); writes fan each lane out to its stream vector.
WB_SIMD_MULTIVERSION
void transpose_divide_rows(const double* rows, std::size_t stride,
                           std::size_t n, const double* mad,
                           std::size_t num_streams,
                           std::vector<std::vector<double>>& streams) {
  using P = simd::dpack;
  constexpr std::size_t L = simd::kLanes;
  for (std::size_t g = 0; g < num_streams; g += L) {
    const std::size_t lanes = std::min(L, num_streams - g);
    const P d = P::load(mad + g);
    double* dst[L] = {};
    for (std::size_t l = 0; l < lanes; ++l) dst[l] = streams[g + l].data();
    std::size_t k = 0;
    if (lanes == L) {
      // L×L blocks: L pack loads down the rows, an in-register transpose,
      // L contiguous pack stores across the streams. Each element still
      // sees its one IEEE divide; only the store pattern changes.
      for (; k + L <= n; k += L) {
        P v[L];
        for (std::size_t r = 0; r < L; ++r) {
          v[r] = P::load(rows + (k + r) * stride + g) / d;
        }
        for (std::size_t l = 0; l < L; ++l) {
          P w;
          for (std::size_t r = 0; r < L; ++r) w.lane[r] = v[r].lane[l];
          w.store(dst[l] + k);
        }
      }
    }
    for (; k < n; ++k) {
      const P v = P::load(rows + k * stride + g) / d;
      for (std::size_t l = 0; l < lanes; ++l) dst[l][k] = v.lane[l];
    }
  }
}

}  // namespace

void condition_into(const wifi::CaptureTrace& trace, MeasurementSource source,
                    TimeUs movavg_window_us, DecodeWorkspace& ws,
                    ConditionedTrace& out) {
  WB_REQUIRE(movavg_window_us > TimeUs{},
             "moving-average window must be positive");
  obs::ScopedTimer timer("reader.conditioning.wall_us");

  const std::size_t num_streams = (source == MeasurementSource::kCsi)
                                      ? wifi::kNumCsiStreams
                                      : phy::kNumAntennas;

  // Collect raw series straight into preallocated SoA buffers: count the
  // usable records first, size every stream once, then write by index.
  // For CSI, records without CSI (beacons on the paper's NIC) are skipped
  // entirely; for RSSI every record counts.
  const bool want_csi = source == MeasurementSource::kCsi;
  std::size_t n = 0;
  if (want_csi) {
    for (const auto& rec : trace) n += rec.has_csi ? 1 : 0;
  } else {
    n = trace.size();
  }
  out.timestamps.resize(n);

  // Interleaved [packet][lane] rows (DESIGN.md §15): each record writes one
  // contiguous row — the order a record naturally arrives in — and the
  // batched kernels then center + normalise all stream columns per time
  // step in one pass. The stride pads up to the pack width; padding lanes
  // are zero-filled so they ride through the kernels as inert columns.
  const std::size_t stride =
      (num_streams + simd::kLanes - 1) / simd::kLanes * simd::kLanes;
  ws.raw_rows.resize(n * stride);
  ws.centered_rows.resize(n * stride);
  ws.row_sums.resize(stride);
  ws.row_mads.resize(stride);

  std::size_t idx = 0;
  for (const auto& rec : trace) {
    if (want_csi && !rec.has_csi) continue;
    out.timestamps[idx] = rec.timestamp_us;
    double* row = ws.raw_rows.data() + idx * stride;
    if (want_csi) {
      // Lane order is antenna-major (stream_index), so the record's CSI
      // matrix is copied row by row — each antenna row is contiguous.
      for (std::size_t a = 0; a < phy::kNumAntennas; ++a) {
        std::memcpy(row + a * phy::kNumSubchannels, rec.csi[a].data(),
                    phy::kNumSubchannels * sizeof(double));
      }
    } else {
      for (std::size_t s = 0; s < num_streams; ++s) {
        row[s] = rec.rssi_dbm[s];
      }
    }
    for (std::size_t s = num_streams; s < stride; ++s) row[s] = 0.0;
    ++idx;
  }
  WB_ENSURE(idx == n);

  out.streams.resize(num_streams);
  for (std::size_t s = 0; s < num_streams; ++s) {
    out.streams[s].resize(n);
  }
  if (n > 0) {
    // Fused pipeline, bit-identical to per-stream remove_time_moving_average
    // + normalize_mad: the MAD divisors accumulate
    // inside the centering sweep (conditioning.h) and the divide rides the
    // transpose, so the matrix crosses memory twice instead of four times.
    remove_time_moving_average_rows(
        std::span<const TimeUs>(out.timestamps),
        std::span<const double>(ws.raw_rows), stride, movavg_window_us,
        ws.row_sums, ws.centered_rows, ws.row_mads);
    transpose_divide_rows(ws.centered_rows.data(), stride, n,
                          ws.row_mads.data(), num_streams, out.streams);
  }
  if (auto* m = obs::metrics()) {
    m->counter("reader.conditioning.traces_total").add(1);
    m->counter("reader.conditioning.packets_total")
        .add(out.timestamps.size());
    m->gauge("reader.conditioning.streams_count")
        .set(static_cast<double>(num_streams));
  }
  if (auto* fx = obs::forensics()) {
    // A trace that loses every record here (e.g. beacons-only capture on
    // a CSI decoder) dies at conditioning, not downstream.
    fx->record_attempt(obs::DropStage::kConditioning);
    if (n == 0) {
      fx->record_drop(obs::DropStage::kConditioning,
                      obs::DropReason::kEmptyTrace);
    } else {
      fx->record_decode(obs::DropStage::kConditioning);
    }
  }
}

ConditionedTrace condition(const wifi::CaptureTrace& trace,
                           MeasurementSource source,
                           TimeUs movavg_window_us) {
  DecodeWorkspace ws;
  ConditionedTrace out;
  condition_into(trace, source, movavg_window_us, ws, out);
  return out;
}

}  // namespace wb::reader
