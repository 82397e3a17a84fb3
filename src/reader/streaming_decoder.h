// Online uplink decoding: a rolling-buffer wrapper around UplinkDecoder
// for readers that consume capture records as the NIC produces them
// ("while waiting for an incoming transmission", §3.2), rather than
// decoding a recorded trace offline.
//
// The wrapper buffers recent records, periodically scans the not-yet-
// consumed region for a preamble, emits any frame whose sync score clears
// the configured threshold, and trims the buffer so memory stays bounded
// no matter how long the reader runs.
#pragma once

#include <cstdint>
#include <vector>

#include "reader/uplink_decoder.h"
#include "util/check.h"

namespace wb::reader {

/// Re-scan cadence: after a scan that found no frame, the next one waits
/// for frame_duration / kScansPerFrame more air time.
inline constexpr std::int64_t kScansPerFrame = 2;

struct StreamingDecoderConfig {
  /// Frame format / decoding parameters. search_from/search_to are
  /// managed by the wrapper and must be left unset (WB_REQUIRE'd at
  /// construction).
  UplinkDecoderConfig decoder{};

  /// Minimum sync score to emit a frame. Pure ambient noise (drift +
  /// measurement noise over a long scan window) reaches ~0.45; frames at
  /// working SNR score 0.8+. 0.6 rejects noise with margin while keeping
  /// most of the plain decoder's range; lower it when pairing with an
  /// outer CRC that discards false frames anyway.
  double sync_threshold = 0.6;

  /// History retained behind the consumed point. Must cover the
  /// conditioning window (decoder.movavg_window_us) — a shorter history
  /// would trim records conditioning still needs, silently degrading
  /// every later scan (WB_REQUIRE'd at construction).
  TimeUs history_us{1'000'000};
};

/// Receiver of decoded frames for the allocation-free delivery path.
/// on_frame() observes the wrapper's reused scratch result: copy what you
/// need before returning — the reference dies with the call.
class FrameSink {
 public:
  virtual void on_frame(const UplinkDecodeResult& frame) = 0;

 protected:
  ~FrameSink() = default;
};

class StreamingUplinkDecoder {
 public:
  explicit StreamingUplinkDecoder(StreamingDecoderConfig cfg);

  /// Feed one capture record (timestamps must be non-decreasing); frames
  /// completed by this record (usually none, occasionally one) go to
  /// `sink.on_frame()`. Returns how many frames were emitted. Scans reuse
  /// one decoder instance and one DecodeWorkspace, so the steady-state
  /// scan path does not allocate (DESIGN.md §10); wb::serve sessions
  /// implement FrameSink and copy payloads into preallocated slots.
  WB_REALTIME std::size_t push(const wifi::CaptureRecord& rec,
                               FrameSink& sink);

  /// Final scan over the not-yet-consumed tail of the buffer. push() only
  /// scans when a *later* record arrives, so when traffic stops, any frame
  /// that ended within a scan interval of the last record would otherwise
  /// be stranded forever. Call when the capture ends (or goes quiet) to
  /// drain those frames into `sink`; returns how many were emitted.
  /// Idempotent — a second flush() emits nothing new.
  std::size_t flush(FrameSink& sink);

  /// Return to the freshly constructed state while keeping the buffer's
  /// and workspace's capacity: clears buffered records, the consumed/scan
  /// cursors, and the emit and scan counters. Lets a serving layer reuse one
  /// decoder (and its warmed allocations) across session attach cycles.
  void reset();

  /// Records currently buffered (bounded by history + scan horizon).
  std::size_t buffered() const { return buffer_.size(); }

  /// Total frames emitted so far.
  std::uint64_t frames_emitted() const { return frames_emitted_; }

  /// Scans run so far, and the records they ran through the centering
  /// kernel: each scan's kept rows and the records whose value may have
  /// changed since the scan before (DESIGN.md §15).
  std::uint64_t scans() const { return scans_; }
  std::uint64_t records_conditioned() const {
    return cond_.records_centered();
  }

  const StreamingDecoderConfig& config() const { return cfg_; }

 private:
  /// One decode over [consumed_until_, search_to]; on success emits into
  /// `sink` and advances consumed_until_ past the frame.
  bool scan(TimeUs search_to_us, FrameSink& sink);

  /// Drop records no future frame needs (history window behind the
  /// consumed point).
  void trim_history();

  StreamingDecoderConfig cfg_;
  UplinkDecoder dec_;          ///< reused across scans (search window slides)
  DecodeWorkspace ws_;         ///< reused across scans
  ScanConditioner cond_;       ///< conditioning state kept between scans
  UplinkDecodeResult scratch_; ///< reused scan result
  wifi::CaptureTrace buffer_;
  TimeUs consumed_until_{0};  ///< frames may only start after this
  TimeUs next_scan_at_{0};
  std::uint64_t frames_emitted_ = 0;
  std::uint64_t scans_ = 0;
  /// flush() already reported this session's drained tail (keeps the
  /// idempotent second flush() from double-counting the drop; reset when
  /// push() buffers new records).
  bool drained_reported_ = false;
};

}  // namespace wb::reader
