// Signal conditioning (paper §3.2, step 1): turn raw per-packet channel
// measurements into zero-mean, normalised series the rest of the decoder
// can threshold.
//
//   1. subtract a 400 ms moving average (computed over *time*, not packet
//      count — the medium is bursty) to remove environmental drift;
//   2. normalise by the mean absolute value so a tag 'one' maps near +1
//      and a 'zero' near -1 without knowing the transmitted bits.
//
// The same conditioning applies to CSI streams (90 of them: 30
// sub-channels x 3 antennas) and RSSI streams (one per antenna); the
// decoder treats every stream identically after this stage.
#pragma once

#include <span>
#include <vector>

#include "util/check.h"
#include "util/units.h"
#include "wifi/capture.h"

namespace wb::reader {

struct DecodeWorkspace;  // decode_workspace.h

/// Conditioned measurement series: one value per captured packet per
/// stream, plus the shared packet timestamps.
struct ConditionedTrace {
  std::vector<TimeUs> timestamps;            ///< per packet
  std::vector<std::vector<double>> streams;  ///< [stream][packet]

  std::size_t num_packets() const { return timestamps.size(); }
  std::size_t num_streams() const { return streams.size(); }
};

/// Which NIC measurement feeds the decoder.
enum class MeasurementSource {
  kCsi,   ///< 30 sub-channels x 3 antennas (records without CSI skipped)
  kRssi,  ///< per-antenna RSSI in dB
};

/// Condition a capture trace: moving-average removal (window in
/// microseconds, paper uses 400 ms) followed by mean-absolute-value
/// normalisation per stream.
ConditionedTrace condition(const wifi::CaptureTrace& trace,
                           MeasurementSource source,
                           TimeUs movavg_window_us = TimeUs{400'000});

/// Allocation-free variant of condition(): raw collection and the
/// moving-average scratch live in `ws` (decode_workspace.h), the result is
/// written into `out` reusing its capacity. Bit-identical to condition().
WB_REALTIME void condition_into(const wifi::CaptureTrace& trace,
                                MeasurementSource source,
                                TimeUs movavg_window_us, DecodeWorkspace& ws,
                                ConditionedTrace& out);

/// The moving-average-removal stage alone (exposed for tests and the
/// ablation bench): y_k = x_k - mean{x_j : t_j in (t_k - window, t_k]}.
std::vector<double> remove_time_moving_average(
    const std::vector<TimeUs>& ts, const std::vector<double>& xs,
    TimeUs window_us);

/// Span-out variant of remove_time_moving_average: `out.size()` must equal
/// `xs.size()`; `out` must not alias `xs` (the sliding window re-reads
/// samples behind the cursor). Bit-identical to the allocating wrapper.
void remove_time_moving_average(std::span<const TimeUs> ts,
                                std::span<const double> xs, TimeUs window_us,
                                std::span<double> out);

/// Stream-batched variant (DESIGN.md §15) with wb::mad_rows' divisor
/// pass fused in. `rows` is a row-major [packet][lane] matrix — ts.size()
/// rows of `stride` lanes, `stride` a multiple of simd::kLanes — and every
/// lane column is centered exactly as the span variant centers one series:
/// the [t_k - w/2, t_k + w/2] window cursors are shared across columns
/// (the timestamps are shared), the per-column window sums live in
/// `sum_scratch` (size `stride`) and advance in the same
/// add-tail-then-retire-head order. `out_rows` must not alias `rows`
/// (window re-reads). Bit-identical per column to the span variant.
/// Each centered row also accumulates |out| per column as it is written
/// (the same row order mad_rows reads in), and `mad_out` (size `stride`)
/// gets the same fixed-up divisors mad_rows(out_rows, ...) would produce,
/// one matrix read cheaper. `mad_out` must not alias the output or the
/// window sums.
void remove_time_moving_average_rows(std::span<const TimeUs> ts,
                                     std::span<const double> rows,
                                     std::size_t stride, TimeUs window_us,
                                     std::span<double> sum_scratch,
                                     std::span<double> out_rows,
                                     std::span<double> mad_out);

}  // namespace wb::reader
