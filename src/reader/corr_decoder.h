// Long-range uplink decoding via code correlation (paper §3.4).
//
// Beyond ~65 cm the two reflection states no longer separate in the raw
// channel values (Fig 6), so the tag represents each frame bit with one of
// two orthogonal L-chip codes and the reader correlates: an L-chip
// correlation buys an SNR gain proportional to L, at the cost of an
// L-times-longer bit. The tag-side cost is zero — it still just toggles a
// switch (Modulator's coded mode).
//
// The decoder correlates each stream's chip-slot means against the two
// codes, "picks the Wi-Fi sub-channels that provide the maximum
// correlation peaks", and outputs the bit whose code correlates stronger,
// combining the selected streams weighted by their preamble correlation.
#pragma once

#include <optional>
#include <vector>

#include "obs/forensics.h"
#include "reader/conditioning.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/codes.h"
#include "util/units.h"
#include "wifi/capture.h"

namespace wb::reader {

/// Coded sync search grid: a candidate start every
/// chip_duration / kSyncStepsPerChip.
inline constexpr std::int64_t kSyncStepsPerChip = 2;

/// Minimum fraction of the coded preamble's chip slots that must contain
/// at least one packet for a sync candidate to be considered.
inline constexpr double kMinChipFill = 0.5;

/// Conditioned measurements are clamped to +-kClipSigma before
/// correlating. The plain decoder's per-packet majority voting caps any
/// one packet at one vote, but correlation is linear: a single spurious
/// NIC snapshot (which hits every stream at once) would otherwise pass
/// straight through and can flip a whole bit. Signal lives at +-1, so
/// clamping at 3 costs nothing.
inline constexpr double kClipSigma = 3.0;

struct CodedDecoderConfig {
  MeasurementSource source = MeasurementSource::kCsi;

  /// The orthogonal code pair; its length L is the "correlation length".
  OrthogonalCodePair codes = make_orthogonal_pair(20);

  /// Frame preamble bits (coded like every other bit).
  BitVec preamble = barker13();

  std::size_t payload_bits = 32;

  /// Duration of one chip on air.
  TimeUs chip_duration_us{10'000};

  TimeUs movavg_window_us{400'000};

  std::size_t num_good_streams = 10;

  /// Known frame start (skips the sync search; the paper's range
  /// experiments are query-synchronised). When unset the decoder slides
  /// the coded preamble over the trace.
  std::optional<TimeUs> known_start;

  /// Sync search window and step (used when known_start is unset). When
  /// both ends are set, `to` must not precede `from` — the constructor
  /// rejects an inverted window instead of silently collapsing it.
  std::optional<TimeUs> search_from;
  std::optional<TimeUs> search_to;

  std::size_t chips_per_bit() const { return codes.length(); }
  std::size_t frame_bits() const { return preamble.size() + payload_bits; }
  std::size_t frame_chips() const {
    return frame_bits() * chips_per_bit();
  }
  TimeUs frame_duration_us() const {
    return chip_duration_us * static_cast<std::int64_t>(frame_chips());
  }
};

struct CodedDecodeResult {
  bool found = false;
  TimeUs start_us{0};
  double sync_score = 0.0;
  BitVec payload;
  std::vector<std::size_t> streams;
  std::vector<double> polarity;
  std::vector<double> weights;
  std::vector<double> margin;  ///< per bit: |corr1-corr0| combined
  /// Fraction of samples the winsoriser clamped to +-kClipSigma.
  double clipped_fraction = 0.0;
  /// Why the attempt failed; engaged exactly when !found.
  std::optional<obs::DropReason> drop_reason;
};

class CodedUplinkDecoder {
 public:
  explicit CodedUplinkDecoder(CodedDecoderConfig cfg);

  CodedDecodeResult decode(const wifi::CaptureTrace& trace) const;
  CodedDecodeResult decode_conditioned(const ConditionedTrace& ct) const;

  // ---- allocation-free variants (DESIGN.md §10) ----
  // Bit-identical to the allocating calls; the winsorised trace copy and
  // the slot-binning scratch live in `ws`, results reuse `out`'s vectors.

  WB_REALTIME void decode_into(const wifi::CaptureTrace& trace,
                               DecodeWorkspace& ws,
                               CodedDecodeResult& out) const;
  WB_REALTIME void decode_conditioned_into(const ConditionedTrace& ct,
                                           DecodeWorkspace& ws,
                                           CodedDecodeResult& out) const;

  const CodedDecoderConfig& config() const { return cfg_; }

 private:
  CodedDecoderConfig cfg_;
  std::vector<double> preamble_chips_bipolar_;  ///< coded preamble template
  std::vector<double> code_diff_bipolar_;       ///< bip(one)-bip(zero), L
};

}  // namespace wb::reader
