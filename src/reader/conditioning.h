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

#include <algorithm>
#include <cstdint>
#include <span>
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

/// Conditioning's exact grids (DESIGN.md §15). Each raw measurement is
/// rounded to a multiple of 2^-kRawGridBits before it enters a window
/// sum, and each centered value's magnitude to a multiple of
/// 2^-kCenteredGridBits before it enters its lane's MAD sum, so both sums
/// are exact: a centered value depends only on the records in its window,
/// and a divisor only on the set of records, never on where the capture
/// starts or in which order records enter and leave. The grids hold every
/// measurement within wifi::kMaxMeasurementMagnitude.
inline constexpr int kRawGridBits = 24;
inline constexpr int kCenteredGridBits = 30;

/// A lane's MAD sum in 2^-kCenteredGridBits steps: 128 bits, so it is
/// exact for any record count (DESIGN.md §15).
__extension__ typedef __int128 MadSum;

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

/// condition_records for a streaming reader's record buffer, which
/// between calls grows at its end and loses records only at its head,
/// through trim() (DESIGN.md §15). Centered values are exact, so a
/// record's value changes only when a record enters or leaves its window.
/// Between calls the conditioner keeps the exact MAD steps of each
/// closed block of records (kScanBlockRecords of them, none of whose
/// windows can gain a record) and the window sums where its next sweep
/// resumes. Each call runs the centering kernel only on the kept rows,
/// on the records the newest record's window still reaches, and on the
/// blocks a trim reopened. Its output equals condition_records' on the
/// same records, bit for bit.
class ScanConditioner {
 public:
  ScanConditioner(MeasurementSource source, TimeUs movavg_window_us);

  MeasurementSource source() const { return source_; }
  TimeUs movavg_window_us() const { return window_; }

  /// condition_records on the records collect_records left in
  /// `ws.records`: the buffer's usable records, which must begin with
  /// every usable record the last call saw that trim() kept.
  WB_REALTIME void condition(DecodeWorkspace& ws, ConditionedTrace& out,
                             TimeUs keep_from_us, TimeUs keep_to_us);

  /// Call just before buffer[0, first_kept) leaves the buffer, every one
  /// of those records stamped before buffer[first_kept].
  WB_REALTIME void trim(const wifi::CaptureTrace& buffer,
                        std::size_t first_kept);

  /// Forget every record and zero records_centered() (keeps capacity).
  void reset();

  /// Records run through the centering kernel so far.
  std::uint64_t records_centered() const { return centered_; }

  /// Records per closed block.
  static constexpr std::uint64_t kScanBlockRecords = 64;

 private:
  /// A sweep's window before it centers record `next`: the exact sums of
  /// records [head, tail). Records are numbered in arrival order, usable
  /// records only, from the last restart.
  struct Window {
    std::uint64_t next = 0;
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    std::vector<double> sums;
    /// An empty window before record `at`.
    void start_at(std::uint64_t at) {
      next = head = tail = at;
      std::fill(sums.begin(), sums.end(), 0.0);
    }
  };
  /// What one call centers: records [base_, head_end) and [main, end);
  /// it only moves the window over [head_end, main). Blocks wholly below
  /// `settled` close; the next call resumes at `park`.
  struct Plan {
    std::uint64_t head_end = 0;
    std::uint64_t main = 0;
    std::uint64_t settled = 0;
    std::uint64_t park = 0;
  };

  /// Forget every record; the next one is numbered `base`.
  void restart(std::uint64_t base);
  /// Sweeps window `w` to record `to` as `plan` says (parking a copy in
  /// cursor_ at plan.park when `park`).
  void run(Window& w, std::uint64_t to, const Plan& plan,
           std::span<const wifi::CaptureRecord* const> recs,
           std::size_t keep_lo, std::size_t keep_hi, double* kept,
           bool park);
  std::int64_t* block(std::uint64_t b) {
    return blocks_.data() + (b - first_block_) * stride_;
  }

  MeasurementSource source_;
  TimeUs window_;
  std::size_t stride_;
  std::uint64_t base_ = 0;  ///< number of the buffer's first usable record
  std::uint64_t seen_ = 0;  ///< one past the last record the last call saw
  /// Blocks [closed_lo_, closed_hi_) are closed: their slots in blocks_
  /// hold the MAD steps of their buffered records, and closed_total_ the
  /// slots' sum. Block b holds records [b, b + 1) * kScanBlockRecords;
  /// blocks_ starts at first_block_, the block of the buffer's head, and
  /// a closed range never starts past it unless a trim reopened the
  /// blocks in between. An empty range is [first_block_, first_block_).
  std::uint64_t first_block_ = 0;
  std::uint64_t closed_lo_ = 0;
  std::uint64_t closed_hi_ = 0;
  std::vector<std::int64_t> blocks_;
  std::vector<MadSum> closed_total_;
  std::vector<MadSum> open_total_;  ///< this call's records in no block
  std::vector<std::int64_t> chunk_;  ///< one kernel call's MAD steps
  Window cursor_;  ///< the window at the last call's park, if has_cursor_
  bool has_cursor_ = false;
  Window run_;  ///< scratch windows for one call's sweeps
  Window head_;
  std::uint64_t centered_ = 0;
};

}  // namespace wb::reader
