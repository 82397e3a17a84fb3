// The plain scalar reader (paper §3.2-§3.4): the one reference that every
// bit-exactness oracle compares the product reader against.
//
// Each conditioned stream is its own [stream][packet] vector, and each
// stage is the straight loop its documentation states:
//   * centre each stream on a moving average over time, then divide it by
//     its mean |x|;
//   * probe each sync candidate alone: bin its window into slots, sum each
//     stream's slot in packet order from 0.0 and divide once by the slot's
//     count, correlate the slot means with the preamble in slot order, and
//     rank the streams by |correlation|;
//   * combine the best streams with MRC, threshold with hysteresis and take
//     a vote per bit; for long range, correlate chip blocks with the codes;
//   * stream: re-decode the whole retained buffer at every scan.
// Nothing here uses a simd pack, the sync phase grid, the row-major trace
// or any other reader kernel, so the product's kernels are checked against
// arithmetic written once, in the order the product promises to keep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "reader/conditioning.h"
#include "reader/corr_decoder.h"
#include "reader/decode_workspace.h"
#include "reader/streaming_decoder.h"
#include "reader/uplink_decoder.h"
#include "util/bits.h"
#include "util/units.h"
#include "wifi/capture.h"

namespace wb::reference {

/// A conditioned trace as the plain reader holds it.
struct StreamTrace {
  std::vector<TimeUs> timestamps;            ///< per packet
  std::vector<std::vector<double>> streams;  ///< [stream][packet]

  std::size_t num_packets() const { return timestamps.size(); }
  std::size_t num_streams() const { return streams.size(); }
};

// ---- conditioning ----

/// out_k = x_k - mean{x_j : t_j in [t_k - w/2, t_k + w/2]}: a centered
/// window over time, its sum one running double sum that adds packets as
/// they enter and subtracts them as they leave. `ts` must be sorted, the
/// window positive, and `out` as long as `xs` without aliasing it (the
/// window re-reads samples behind the cursor).
void center(std::span<const TimeUs> ts, std::span<const double> xs,
            TimeUs window_us, std::span<double> out);

/// out = x / mean|x|, the mean summed in order from 0.0; x is copied
/// unchanged when the mean is not positive. `out` may be `x` itself but
/// must not partly overlap it.
void normalize_mad(std::span<const double> x, std::span<double> out);

/// What condition() reuses between calls.
struct ConditionScratch {
  std::vector<std::vector<double>> raw;  ///< [stream][packet]
  std::vector<double> centered;          ///< one stream's centered series
};

/// Collects the usable records (CSI: those that carry CSI; RSSI: all) one
/// vector per stream, then centers and normalises each stream. A warm
/// scratch and output make the call allocation-free.
void condition(const wifi::CaptureTrace& trace,
               reader::MeasurementSource source, TimeUs window_us,
               ConditionScratch& scratch, StreamTrace& out);

// ---- sync ----

/// A window of slots from start_us: slot m holds the packets stamped in
/// [start_us + m * slot_us, start_us + (m + 1) * slot_us).
struct Window {
  std::vector<std::size_t> count;          ///< packets per slot
  std::vector<std::vector<double>> means;  ///< [stream][slot], 0.0 if empty
  std::size_t filled = 0;                  ///< slots holding a packet
};

/// Bins one window: each slot mean is its packets' sum in packet order
/// from 0.0, divided once by their count.
Window bin(const StreamTrace& st, TimeUs start_us, TimeUs slot_us,
           std::size_t nslots);

/// One candidate start, probed alone.
struct Probe {
  double score = 0.0;              ///< mean |corr| of the top streams
  std::vector<double> corrs;       ///< per stream
  std::vector<std::size_t> top;    ///< the top g streams by |corr|, ranked
  std::size_t filled = 0;          ///< slots holding a packet
};

/// Correlates every stream's slot means with the +-1 template: the sum in
/// slot order over the filled slots, divided by the fill (+0.0 for every
/// stream when fewer than `min_filled` slots, or none, hold a packet).
/// std::partial_sort picks the top g.
Probe probe(const StreamTrace& st, std::span<const double> tmpl,
            TimeUs start_us, TimeUs slot_us, double min_filled,
            std::size_t g);

/// Lone probes of from_us, from_us + step_us, ... up to to_us, in start
/// order.
void sync_search(const StreamTrace& st, std::span<const double> tmpl,
                 TimeUs slot_us, double min_filled, std::size_t g,
                 TimeUs from_us, TimeUs to_us, TimeUs step_us,
                 const std::function<void(TimeUs, const Probe&)>& visit);

/// What reader::sync_search leaves for the candidate it is visiting.
Probe probe_of(const reader::DecodeWorkspace& ws, std::size_t g,
               double score);

// ---- decoders ----

/// The MRC-combined signal of each packet in the frame `sync` found (its
/// start, streams, polarities and weights): per packet, acc = w * p * x +
/// acc over the streams in selection order from 0.0, divided once by the
/// weight sum.
std::vector<double> combine(const reader::UplinkDecoderConfig& cfg,
                            const StreamTrace& st,
                            const reader::UplinkDecodeResult& sync);

/// Sync, preamble noise variance, MRC (combine()), hysteresis and the
/// per-bit vote.
reader::UplinkDecodeResult uplink_decode(const reader::UplinkDecoderConfig& cfg,
                                         const StreamTrace& st);

/// The per-stream winsoriser, sync with the start's probe, and the chip
/// correlations of each payload bit.
reader::CodedDecodeResult coded_decode(const reader::CodedDecoderConfig& cfg,
                                       const StreamTrace& st);

/// The streaming re-scan policy: push records one at a time; scan when a
/// frame's worth of air lies past the consumed point and the cadence
/// allows, decoding the whole retained buffer; trim history behind the
/// consumed point; flush at the end. Returns every emitted frame.
std::vector<reader::UplinkDecodeResult> stream_frames(
    const reader::StreamingDecoderConfig& cfg,
    const wifi::CaptureTrace& trace);

// ---- bitwise comparers (every double by bit pattern) ----

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want);
void expect_bitwise(const reader::ConditionedTrace& got,
                    const StreamTrace& want);
void expect_bitwise(const Probe& got, const Probe& want);
void expect_bitwise(const reader::UplinkDecodeResult& got,
                    const reader::UplinkDecodeResult& want);
void expect_bitwise(const reader::CodedDecodeResult& got,
                    const reader::CodedDecodeResult& want);

// ---- captures ----

/// A simulated capture over 3 000 pkt/s of helper CBR traffic, with a tag
/// frame (Barker-13 preamble + payloads[i], bits of bit_us) starting at
/// each frame_starts[i].
wifi::CaptureTrace make_trace(const std::vector<TimeUs>& frame_starts,
                              const std::vector<BitVec>& payloads,
                              TimeUs bit_us, TimeUs until,
                              std::uint64_t seed);

}  // namespace wb::reference
