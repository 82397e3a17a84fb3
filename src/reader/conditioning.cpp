#include "reader/conditioning.h"

#include <algorithm>
#include <span>

#include "obs/forensics.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/check.h"

#include "reader/decode_workspace.h"
#include "util/simd.h"

namespace wb::reader {

namespace {

// The in-place centering kernel (DESIGN.md §15). One record's
// measurements sit in `kCount` arrays of `kWidth` doubles (CSI: one per
// antenna; RSSI: the antenna array), and array a feeds lanes
// [a * kWidth, (a + 1) * kWidth) of a stride-wide row. The kernel walks
// each array on its own: pack loads stop at the array's last whole pack
// and the rest go one lane at a time, so no pointer ever runs past the
// array it started in. A scalar lane runs the same IEEE operation a pack
// lane would, so the split does not change a bit.
struct CsiLanes {
  static constexpr std::size_t kCount = phy::kNumAntennas;
  static constexpr std::size_t kWidth = phy::kNumSubchannels;
  static const double* at(const wifi::CaptureRecord& r, std::size_t a) {
    return r.csi[a].data();
  }
};
struct RssiLanes {
  static constexpr std::size_t kCount = 1;
  static constexpr std::size_t kWidth = phy::kNumAntennas;
  static const double* at(const wifi::CaptureRecord& r, std::size_t) {
    return r.rssi_dbm.data();
  }
};

/// sums[lane] += x (kAdd) or -= x, one record's lanes.
template <class Lanes, bool kAdd>
WB_SIMD_INLINE void slide(const wifi::CaptureRecord& r, double* sums) {
  using P = simd::dpack;
  constexpr std::size_t kMain = Lanes::kWidth - Lanes::kWidth % simd::kLanes;
  for (std::size_t a = 0; a < Lanes::kCount; ++a) {
    const double* x = Lanes::at(r, a);
    double* s = sums + a * Lanes::kWidth;
    for (std::size_t i = 0; i < kMain; i += simd::kLanes) {
      const P v = kAdd ? P::load(s + i) + P::load(x + i)
                       : P::load(s + i) - P::load(x + i);
      v.store(s + i);
    }
    for (std::size_t i = kMain; i < Lanes::kWidth; ++i) {
      s[i] = kAdd ? s[i] + x[i] : s[i] - x[i];
    }
  }
}

/// Centers one record against the window sums: out = x - sum / nwin per
/// lane, |out| added to `mad`, and (kStore) out written to `row`, whose
/// padding lanes up to `stride` are zeroed.
template <class Lanes, bool kStore>
WB_SIMD_INLINE void center(const wifi::CaptureRecord& r, const double* sums,
                           double nwin, double* mad, double* row,
                           std::size_t stride) {
  using P = simd::dpack;
  constexpr std::size_t kMain = Lanes::kWidth - Lanes::kWidth % simd::kLanes;
  const P nw = P::broadcast(nwin);
  for (std::size_t a = 0; a < Lanes::kCount; ++a) {
    const double* x = Lanes::at(r, a);
    const std::size_t c = a * Lanes::kWidth;
    for (std::size_t i = 0; i < kMain; i += simd::kLanes) {
      const P out = P::load(x + i) - P::load(sums + c + i) / nw;
      (P::load(mad + c + i) + P::abs(out)).store(mad + c + i);
      if constexpr (kStore) out.store(row + c + i);
    }
    for (std::size_t i = kMain; i < Lanes::kWidth; ++i) {
      const double out = x[i] - sums[c + i] / nwin;
      mad[c + i] = mad[c + i] + (out < 0.0 ? -out : out);  // P::abs
      if constexpr (kStore) row[c + i] = out;
    }
  }
  if constexpr (kStore) {
    for (std::size_t c = Lanes::kCount * Lanes::kWidth; c < stride; ++c) {
      row[c] = 0.0;
    }
  }
}

/// The centering sweep over every usable record, in the order the scalar
/// reference reader (tests/reference) sweeps one series: per record, add
/// the records entering its [t_k - w/2, t_k + w/2] window, retire those
/// leaving it, then center. The window bounds depend only on the shared
/// timestamps, so every lane replays that series' add/retire chain.
///
/// The window is centered. The paper's receiver subtracts a trailing
/// 400 ms average online; decoding offline, the centered window removes
/// the same drift without the trailing window's data-dependent baseline
/// creep (a trailing average over a frame edge mixes modulated and
/// quiescent samples, which can flip the apparent sign of bits after
/// locally imbalanced runs).
template <class Lanes>
WB_SIMD_INLINE void sweep(std::span<const wifi::CaptureRecord* const> recs,
                          TimeUs half, std::size_t keep_lo,
                          std::size_t keep_hi, std::size_t stride,
                          double* sums, double* mad, double* kept) {
  const std::size_t n = recs.size();
  std::size_t head = 0;  // first record inside [t_k - half, t_k + half]
  std::size_t tail = 0;  // one past the last record inside
  for (std::size_t k = 0; k < n; ++k) {
    const TimeUs t = recs[k]->timestamp_us;
    while (tail < n && recs[tail]->timestamp_us <= t + half) {
      slide<Lanes, true>(*recs[tail], sums);
      ++tail;
    }
    while (recs[head]->timestamp_us < t - half) {
      slide<Lanes, false>(*recs[head], sums);
      ++head;
    }
    const auto nwin = static_cast<double>(tail - head);
    if (k >= keep_lo && k < keep_hi) {
      center<Lanes, true>(*recs[k], sums, nwin, mad,
                          kept + (k - keep_lo) * stride, stride);
    } else {
      center<Lanes, false>(*recs[k], sums, nwin, mad, nullptr, stride);
    }
  }
}

// The sweep for either lane layout, compiled once per ISA clone.
WB_SIMD_MULTIVERSION
void sweep_records(std::span<const wifi::CaptureRecord* const> recs,
                   bool csi, TimeUs half, std::size_t keep_lo,
                   std::size_t keep_hi, std::size_t stride, double* sums,
                   double* mad, double* kept) {
  if (csi) {
    sweep<CsiLanes>(recs, half, keep_lo, keep_hi, stride, sums, mad, kept);
  } else {
    sweep<RssiLanes>(recs, half, keep_lo, keep_hi, stride, sums, mad, kept);
  }
}

// Centers every usable record where it lies in the capture (no copy),
// stores the rows of records [keep_lo, keep_hi) into `kept`
// ((keep_hi - keep_lo) x stride), and leaves each lane's MAD divisor in
// `mad` (size stride): the mean |centered| over *every* record, summed in
// record order as the reference sums one series, with degenerate lanes
// (mad <= 0, padding included) dividing by an exact 1.0. `sums` (size
// stride) is the window-sum scratch. collect_records checked that the
// records are sorted. The contract checks stay out of the clones: GCC
// treats a call to a target_clones function as nothrow, so a check
// throwing inside one (ContractPolicy::kThrow) would terminate instead of
// unwinding.
void center_records(std::span<const wifi::CaptureRecord* const> recs,
                    bool csi, TimeUs window_us, std::size_t keep_lo,
                    std::size_t keep_hi, std::size_t stride,
                    std::span<double> sums, std::span<double> mad,
                    std::span<double> kept) {
  WB_REQUIRE(window_us > TimeUs{},
             "moving-average window must be positive");
  WB_REQUIRE(keep_lo <= keep_hi && keep_hi <= recs.size() &&
                 kept.size() == (keep_hi - keep_lo) * stride,
             "kept rows must be a stride-wide row per kept record");
  WB_REQUIRE(sums.size() == stride && mad.size() == stride,
             "window sums and divisors need one lane per column");
  for (double& s : sums) s = 0.0;
  for (double& m : mad) m = 0.0;
  sweep_records(recs, csi, window_us / 2, keep_lo, keep_hi, stride,
                sums.data(), mad.data(), kept.data());
  if (recs.empty()) {
    // No rows: every column is degenerate, so every divisor is 1.0.
    for (double& m : mad) m = 1.0;
    return;
  }
  const auto n = static_cast<double>(recs.size());
  for (double& m : mad) {
    const double mean_abs = m / n;
    m = mean_abs <= 0.0 ? 1.0 : mean_abs;
  }
}

// Divides the centered rows in place by their lanes' MAD divisors: the
// one IEEE divide per element that the reference applies to one series.
// Padding lanes divide 0.0 by 1.0.
WB_SIMD_MULTIVERSION
void divide_rows(double* rows, std::size_t n, std::size_t stride,
                 const double* mad) {
  using P = simd::dpack;
  for (std::size_t k = 0; k < n; ++k) {
    double* row = rows + k * stride;
    for (std::size_t g = 0; g < stride; g += simd::kLanes) {
      (P::load(row + g) / P::load(mad + g)).store(row + g);
    }
  }
}

}  // namespace

void copy_stream(const ConditionedTrace& ct, std::size_t stream,
                 ConditionedTrace& out) {
  WB_REQUIRE(stream < ct.num_streams(), "stream index out of range");
  WB_REQUIRE(&ct != &out, "a stream copy needs a separate output trace");
  const std::size_t n = ct.num_packets();
  out.resize(1, n);
  std::copy(ct.timestamps.begin(), ct.timestamps.end(),
            out.timestamps.begin());
  std::fill(out.rows.begin(), out.rows.end(), 0.0);
  for (std::size_t k = 0; k < n; ++k) out.at(k, 0) = ct.at(k, stream);
}

PacketSpan packet_span(const ConditionedTrace& ct) {
  PacketSpan span;
  span.packets = ct.num_packets();
  if (span.packets > 0) {
    span.first_us = ct.timestamps.front();
    span.last_us = ct.timestamps.back();
  }
  return span;
}

PacketSpan collect_records(const wifi::CaptureTrace& trace,
                           MeasurementSource source, DecodeWorkspace& ws) {
  // For CSI, records without CSI (beacons on the paper's NIC) are skipped
  // entirely; for RSSI every record counts. The sortedness check rides
  // the same walk: the timestamp shares its cache line with has_csi.
  const bool want_csi = source == MeasurementSource::kCsi;
  ws.records.resize(trace.size());
  std::size_t n = 0;
  bool sorted = true;
  for (const auto& rec : trace) {
    if (want_csi && !rec.has_csi) continue;
    sorted = sorted && (n == 0 || !(rec.timestamp_us <
                                    ws.records[n - 1]->timestamp_us));
    ws.records[n++] = &rec;
  }
  ws.records.resize(n);
  WB_REQUIRE(sorted, "capture timestamps must be non-decreasing");
  PacketSpan span;
  span.packets = n;
  if (n > 0) {
    span.first_us = ws.records.front()->timestamp_us;
    span.last_us = ws.records.back()->timestamp_us;
  }
  return span;
}

void condition_records(MeasurementSource source, TimeUs movavg_window_us,
                       DecodeWorkspace& ws, ConditionedTrace& out,
                       TimeUs keep_from_us, TimeUs keep_to_us) {
  WB_REQUIRE(movavg_window_us > TimeUs{},
             "moving-average window must be positive");
  obs::ScopedTimer timer("reader.conditioning.wall_us");

  const bool want_csi = source == MeasurementSource::kCsi;
  const std::size_t num_streams =
      want_csi ? wifi::kNumCsiStreams : phy::kNumAntennas;
  const auto& recs = ws.records;
  const std::size_t n = recs.size();
  const auto earlier = [](const wifi::CaptureRecord* r, TimeUs t) {
    return r->timestamp_us < t;
  };
  // The kept records are the run stamped in [keep_from_us, keep_to_us):
  // collect_records checked that the records are sorted.
  const auto keep_lo = static_cast<std::size_t>(
      std::lower_bound(recs.begin(), recs.end(), keep_from_us, earlier) -
      recs.begin());
  const auto keep_hi = std::max(
      keep_lo, static_cast<std::size_t>(
                   std::lower_bound(recs.begin(), recs.end(), keep_to_us,
                                    earlier) -
                   recs.begin()));
  const std::size_t kept = keep_hi - keep_lo;

  // The kept records are centered straight into out.rows (DESIGN.md §15),
  // then divided in place by their lanes' whole-trace MAD.
  out.resize(num_streams, kept);
  for (std::size_t k = 0; k < kept; ++k) {
    out.timestamps[k] = recs[keep_lo + k]->timestamp_us;
  }
  const std::size_t stride = out.stride();
  ws.row_sums.resize(stride);
  ws.row_mads.resize(stride);
  center_records(recs, want_csi, movavg_window_us, keep_lo, keep_hi, stride,
                 ws.row_sums, ws.row_mads, out.rows);
  divide_rows(out.rows.data(), kept, stride, ws.row_mads.data());
  if (auto* m = obs::metrics()) {
    m->counter("reader.conditioning.traces_total").add(1);
    m->counter("reader.conditioning.packets_total").add(n);
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

void condition_into(const wifi::CaptureTrace& trace, MeasurementSource source,
                    TimeUs movavg_window_us, DecodeWorkspace& ws,
                    ConditionedTrace& out) {
  collect_records(trace, source, ws);
  condition_records(source, movavg_window_us, ws, out, -TimeUs::max(),
                    TimeUs::max());
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
