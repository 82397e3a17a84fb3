// The Wi-Fi Backscatter uplink decoder (paper §3.2-§3.3) — the core of the
// paper's contribution. Runs entirely on measurements a commodity NIC
// exports (per-packet CSI or RSSI); never sees channel ground truth.
//
// Pipeline:
//   1. conditioning (see conditioning.h): drift removal + normalisation;
//   2. frame sync + stream selection: slide the known tag preamble (a
//      13-bit Barker code) across every stream, bin measurements into bit
//      slots by packet timestamp, and find the start time where the
//      summed top-G |correlation| peaks. Streams are ranked by
//      |correlation| at the chosen start; the correlation *sign* gives
//      each stream's polarity (a reflection can raise or lower |H|
//      depending on the multipath phase, so streams can be inverted);
//   3. per-stream noise-variance estimation over the preamble slots;
//   4. maximum-ratio combining: weighted sum with weights 1/sigma^2
//      (paper's CSI_weighted);
//   5. bit decisions: per-packet hysteresis thresholding at mu +- h*sigma
//      followed by majority voting over the packets binned into each bit
//      slot ("use the timestamp ... to accurately group Wi-Fi packets
//      belonging to the same bit transmission").
//
// RSSI decoding (§3.3) is the same machine with the three RSSI streams
// and G=1 (best antenna only), exactly as the paper describes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/forensics.h"
#include "reader/conditioning.h"
#include "reader/decode_workspace.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/codes.h"
#include "util/units.h"
#include "wifi/capture.h"

namespace wb::reader {

/// Frame-start search grid: the sync search probes a candidate start every
/// bit_duration / kSyncStepsPerBit.
inline constexpr std::int64_t kSyncStepsPerBit = 4;

/// Minimum fraction of preamble slots that must contain at least one
/// packet for a sync candidate to be considered.
inline constexpr double kMinPreambleFill = 0.6;

struct UplinkDecoderConfig {
  /// Measurement the decoder runs on.
  MeasurementSource source = MeasurementSource::kCsi;

  /// The tag's frame preamble (known a priori, §3.2 step 1).
  BitVec preamble = barker13();

  /// Number of payload bits following the preamble.
  std::size_t payload_bits = 77;

  /// Tag bit duration (the reader assigned it in its query, §5).
  TimeUs bit_duration_us{10'000};

  /// Moving-average window for conditioning (§3.2: 400 ms).
  TimeUs movavg_window_us{400'000};

  /// How many "good" streams to combine (§3.2: top ten).
  std::size_t num_good_streams = 10;

  /// Hysteresis half-width in units of sigma of the combined signal.
  /// The ablation bench shows timestamp-binned majority voting already
  /// absorbs the NIC's spurious snapshots, so wide hysteresis only costs
  /// votes; a narrow band is kept for fidelity to §3.2.
  double hysteresis_sigma = 0.25;

  /// Optional restriction of the frame-start search to [from, to]. When
  /// unset the whole trace is searched. Experiments that know roughly when
  /// the tag was queried narrow this for speed; the decoder still
  /// fine-syncs within the window. When both ends are set, `to` must not
  /// precede `from` — the constructor rejects an inverted window instead
  /// of silently collapsing it to a single probe offset.
  std::optional<TimeUs> search_from;
  std::optional<TimeUs> search_to;

  /// Sync acceptance threshold: mean per-bit |correlation| of the best
  /// stream set must exceed this (normalised units; noise gives ~0.2).
  double sync_threshold = 0.0;

  std::size_t frame_bits() const {
    return preamble.size() + payload_bits;
  }
  TimeUs frame_duration_us() const {
    return bit_duration_us * static_cast<std::int64_t>(frame_bits());
  }
};

/// Everything the decoder reports about one frame reception attempt.
struct UplinkDecodeResult {
  bool found = false;           ///< sync succeeded
  TimeUs start_us{0};          ///< estimated frame start
  double sync_score = 0.0;      ///< mean |corr| over the selected streams
  BitVec payload;               ///< decoded payload bits
  std::vector<std::size_t> streams;  ///< selected stream indices (ranked)
  std::vector<double> polarity;      ///< +1/-1 per selected stream
  std::vector<double> weights;       ///< MRC weights per selected stream
  std::vector<double> confidence;    ///< per payload bit, |vote margin| 0..1
  std::size_t packets_used = 0;      ///< packets in the frame interval
  /// Why the attempt failed; engaged exactly when !found.
  std::optional<obs::DropReason> drop_reason;
};

class UplinkDecoder {
 public:
  explicit UplinkDecoder(UplinkDecoderConfig cfg);

  /// Full pipeline from a raw capture trace.
  UplinkDecodeResult decode(const wifi::CaptureTrace& trace) const;

  /// Pipeline from an already-conditioned trace (lets experiments reuse
  /// conditioning across decoder variants).
  UplinkDecodeResult decode_conditioned(const ConditionedTrace& ct) const;

  // ---- allocation-free variants (DESIGN.md §10) ----
  // Same pipeline, bit-identical outputs; scratch lives in `ws` and the
  // result reuses `out`'s vectors, so a warm workspace + reused result
  // make a decode allocation-free.

  /// Full pipeline. Conditioning keeps only the span that the sync
  /// search, the preamble variance and MRC read, [from, to + frame
  /// duration) of the clamped search window, so afterwards
  /// `ws.conditioned` holds that span, not the whole trace. The outputs
  /// are bit-identical to decode_conditioned_into on the whole
  /// conditioned trace.
  WB_REALTIME void decode_into(const wifi::CaptureTrace& trace,
                               DecodeWorkspace& ws,
                               UplinkDecodeResult& out) const;

  /// Pipeline from an already-conditioned trace.
  WB_REALTIME void decode_conditioned_into(const ConditionedTrace& ct,
                                           DecodeWorkspace& ws,
                                           UplinkDecodeResult& out) const;

  /// Replace the frame-start search window (used by the streaming wrapper,
  /// which slides the window forward between scans on one decoder
  /// instance). nullopt = search the whole trace; a window with both ends
  /// set must be coherent (to >= from), like at construction.
  void set_search_window(std::optional<TimeUs> from_us,
                         std::optional<TimeUs> to_us) {
    WB_REQUIRE(!(from_us && to_us) || *to_us >= *from_us,
               "search window must satisfy search_to >= search_from");
    cfg_.search_from = from_us;
    cfg_.search_to = to_us;
  }

  /// Frame sync (§3.2 step 1): slides the preamble over the configured
  /// window on the shared sync search kernel (slot_sync.h). Returns
  /// true when a frame start cleared the sync threshold, leaving
  /// start/score in the out-params and the selected streams/polarities in
  /// `ws.best_streams` / `ws.best_polarity`. On failure, `failure` names
  /// the drop reason — kEmptyTrace (no packets/streams reached sync),
  /// kNoPreamble (no candidate window ever correlated), or kLowSnr (best
  /// correlation positive but at/below the sync threshold).
  bool find_frame(const ConditionedTrace& ct, DecodeWorkspace& ws,
                  TimeUs& start_us, double& score,
                  obs::DropReason& failure) const;

  /// Noise variance of one stream over the preamble slots, given its
  /// polarity (variance of the residual against the known +-1 preamble).
  double preamble_noise_variance(const ConditionedTrace& ct,
                                 std::size_t stream, double polarity,
                                 TimeUs start_us) const;

  const UplinkDecoderConfig& config() const { return cfg_; }

 private:
  /// Candidate frame starts from, from + step, ... up to to.
  struct SearchRange {
    TimeUs from;
    TimeUs to;
  };

  /// The candidates for a trace whose packets span `whole` (not empty):
  /// the configured window, by default the whole trace less one frame,
  /// with `from` no earlier than one bit before the first packet and `to`
  /// no earlier than `from`.
  SearchRange search_range(const PacketSpan& whole) const;

  /// find_frame over the candidates of search_range(whole). `ct` may hold
  /// only the span the search reads; `whole` describes the full trace.
  bool sync(const ConditionedTrace& ct, const PacketSpan& whole,
            DecodeWorkspace& ws, TimeUs& start_us, double& score,
            obs::DropReason& failure) const;

  /// decode_conditioned_into on a trace that may hold only the span
  /// decode_into keeps; the failure paths report `whole`, the full trace.
  void decode_span_into(const ConditionedTrace& ct, const PacketSpan& whole,
                        DecodeWorkspace& ws, UplinkDecodeResult& out) const;

  UplinkDecoderConfig cfg_;
  std::vector<double> preamble_bipolar_;  ///< +-1.0 sync template
};

/// Convenience: a decoder configured per §3.3 for RSSI (3 streams, best
/// antenna only).
UplinkDecoderConfig rssi_decoder_config(const UplinkDecoderConfig& base);

}  // namespace wb::reader
