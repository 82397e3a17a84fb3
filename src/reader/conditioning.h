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

#include <vector>

#include "util/check.h"
#include "util/simd.h"
#include "util/units.h"
#include "wifi/capture.h"

namespace wb::reader {

struct DecodeWorkspace;  // decode_workspace.h

/// Conditioned measurement series, row-major (DESIGN.md §15): one row per
/// captured packet, one lane per stream, plus the shared packet
/// timestamps. Row k holds stride() lanes: stream s of packet k is
/// `rows[k * stride() + s]`, and the padding lanes [num_streams(),
/// stride()) hold 0.0. Decoders run across the stream lanes of each row
/// and read one stream at the stride (at()).
struct ConditionedTrace {
  std::vector<TimeUs> timestamps;  ///< per packet
  std::vector<double> rows;        ///< [packet][lane], stride() per packet

  std::size_t num_packets() const { return timestamps.size(); }
  std::size_t num_streams() const { return num_streams_; }
  /// Lanes per row: num_streams() rounded up to simd::kLanes.
  std::size_t stride() const {
    return (num_streams_ + simd::kLanes - 1) / simd::kLanes * simd::kLanes;
  }

  const double* row(std::size_t k) const {
    return rows.data() + k * stride();
  }
  /// Stream s of packet k.
  double at(std::size_t k, std::size_t s) const {
    return rows[k * stride() + s];
  }
  double& at(std::size_t k, std::size_t s) { return rows[k * stride() + s]; }

  /// Shapes the trace to `packets` rows of `num_streams` streams, reusing
  /// capacity. The rows keep whatever values they held: the caller writes
  /// every lane of every row, the padding lanes as 0.0.
  void resize(std::size_t num_streams, std::size_t packets) {
    num_streams_ = num_streams;
    timestamps.resize(packets);
    rows.resize(packets * stride());
  }

 private:
  std::size_t num_streams_ = 0;
};

/// Copies stream `stream` of `ct` into `out` as a one-stream trace with the
/// same timestamps (capacity reused).
void copy_stream(const ConditionedTrace& ct, std::size_t stream,
                 ConditionedTrace& out);

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

/// Allocation-free variant of condition(): the record list and the
/// moving-average scratch live in `ws` (decode_workspace.h), the result is
/// written into `out` reusing its capacity. Bit-identical to condition().
WB_REALTIME void condition_into(const wifi::CaptureTrace& trace,
                                MeasurementSource source,
                                TimeUs movavg_window_us, DecodeWorkspace& ws,
                                ConditionedTrace& out);

/// How many packets a trace gives the decoder, and the first and last of
/// their timestamps (both 0 when there are none).
struct PacketSpan {
  std::size_t packets = 0;
  TimeUs first_us{0};
  TimeUs last_us{0};
};

/// condition_into's two halves, for a caller that needs the span of the
/// usable records before it picks the rows to keep. collect_records
/// walks the trace once, checks that its usable records (CSI: those that
/// carry CSI; RSSI: all) are sorted by timestamp, leaves them in capture
/// order in `ws.records`, and returns their span.
PacketSpan collect_records(const wifi::CaptureTrace& trace,
                           MeasurementSource source, DecodeWorkspace& ws);

/// Conditions the records collect_records left in `ws.records` into
/// `out`, which holds only the packets stamped in [keep_from_us,
/// keep_to_us), and only their rows are divided. The moving average and
/// the MAD divisor still run over every usable record, so each kept
/// value equals its value in the whole conditioned trace bit for bit.
/// The reader.conditioning.* metrics and the forensics ledger count every
/// usable record.
void condition_records(MeasurementSource source, TimeUs movavg_window_us,
                       DecodeWorkspace& ws, ConditionedTrace& out,
                       TimeUs keep_from_us, TimeUs keep_to_us);

/// The packets of a conditioned trace.
PacketSpan packet_span(const ConditionedTrace& ct);

}  // namespace wb::reader
