#include "reader/conditioning.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "obs/forensics.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/check.h"

#include "reader/decode_workspace.h"
#include "util/simd.h"

namespace wb::reader {

namespace {

// The grids' rounding constants (DESIGN.md §15). Adding 1.5 * 2^(52 - b)
// and subtracting it again rounds x to the nearest multiple of 2^-b, ties
// to even: the sum lies in [2^(52 - b), 2^(53 - b)), where doubles are
// 2^-b apart, for every |x| < 2^(51 - b). For the MAD the bits of
// |c| + kCenteredRound less those of kCenteredRound count the 2^-30 steps
// of the rounded |c|, so each lane sums them as an int64.
constexpr double kRawRound = 1.5 * static_cast<double>(
                                       std::int64_t{1} << (52 - kRawGridBits));
constexpr double kCenteredRound =
    1.5 * static_cast<double>(std::int64_t{1} << (52 - kCenteredGridBits));
constexpr std::int64_t kCenteredBase =
    std::bit_cast<std::int64_t>(kCenteredRound);

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

/// sums[lane] += q (kAdd) or -= q, one record's lanes, where q is the
/// lane's measurement on the 2^-kRawGridBits grid. Every sum of grid
/// values is exact within DESIGN.md §15's bounds.
template <class Lanes, bool kAdd>
WB_SIMD_INLINE void slide(const wifi::CaptureRecord& r, double* sums) {
  using P = simd::dpack;
  constexpr std::size_t kMain = Lanes::kWidth - Lanes::kWidth % simd::kLanes;
  const P round = P::broadcast(kRawRound);
  for (std::size_t a = 0; a < Lanes::kCount; ++a) {
    const double* x = Lanes::at(r, a);
    double* s = sums + a * Lanes::kWidth;
    for (std::size_t i = 0; i < kMain; i += simd::kLanes) {
      const P q = (P::load(x + i) + round) - round;
      const P v = kAdd ? P::load(s + i) + q : P::load(s + i) - q;
      v.store(s + i);
    }
    for (std::size_t i = kMain; i < Lanes::kWidth; ++i) {
      const double q = (x[i] + kRawRound) - kRawRound;
      s[i] = kAdd ? s[i] + q : s[i] - q;
    }
  }
}

/// Centers one record against the window sums: out = x - sum / nwin per
/// lane, |out|'s 2^-kCenteredGridBits steps added to `mad`, and (kStore)
/// out written to `row`, whose padding lanes up to `stride` are zeroed.
template <class Lanes, bool kStore>
WB_SIMD_INLINE void center(const wifi::CaptureRecord& r, const double* sums,
                           double nwin, std::int64_t* mad, double* row,
                           std::size_t stride) {
  using P = simd::dpack;
  using I = simd::pack<std::int64_t, simd::kLanes>;
  constexpr std::size_t kMain = Lanes::kWidth - Lanes::kWidth % simd::kLanes;
  const P nw = P::broadcast(nwin);
  const P round = P::broadcast(kCenteredRound);
  const I base = I::broadcast(kCenteredBase);
  for (std::size_t a = 0; a < Lanes::kCount; ++a) {
    const double* x = Lanes::at(r, a);
    const std::size_t c = a * Lanes::kWidth;
    for (std::size_t i = 0; i < kMain; i += simd::kLanes) {
      const P out = P::load(x + i) - P::load(sums + c + i) / nw;
      const I steps = simd::bits(P::abs(out) + round) - base;
      (I::load(mad + c + i) + steps).store(mad + c + i);
      if constexpr (kStore) out.store(row + c + i);
    }
    for (std::size_t i = kMain; i < Lanes::kWidth; ++i) {
      const double out = x[i] - sums[c + i] / nwin;
      const double abs = out < 0.0 ? -out : out;  // P::abs
      mad[c + i] += std::bit_cast<std::int64_t>(abs + kCenteredRound) -
                    kCenteredBase;
      if constexpr (kStore) row[c + i] = out;
    }
  }
  if constexpr (kStore) {
    for (std::size_t c = Lanes::kCount * Lanes::kWidth; c < stride; ++c) {
      row[c] = 0.0;
    }
  }
}

/// The centering sweep over records [from, to), in the order the scalar
/// reference reader (tests/reference) sweeps one series: per record, add
/// the records entering its [t_k - w/2, t_k + w/2] window, retire those
/// leaving it, then (kCenter) center. The window bounds depend only on
/// the shared timestamps, so every lane replays that series' add/retire
/// chain. `head`/`tail` and `sums` carry the window state in and out: a
/// whole sweep starts at record 0 with an empty window, and a sweep
/// resumed from the state another sweep left gives every record the same
/// sums, because the sums are exact (DESIGN.md §15).
///
/// The window is centered. The paper's receiver subtracts a trailing
/// 400 ms average online; decoding offline, the centered window removes
/// the same drift without the trailing window's data-dependent baseline
/// creep (a trailing average over a frame edge mixes modulated and
/// quiescent samples, which can flip the apparent sign of bits after
/// locally imbalanced runs).
template <class Lanes, bool kCenter>
WB_SIMD_INLINE void sweep(std::span<const wifi::CaptureRecord* const> recs,
                          TimeUs half, std::size_t from, std::size_t to,
                          std::size_t& head_io, std::size_t& tail_io,
                          std::size_t keep_lo, std::size_t keep_hi,
                          std::size_t stride, double* sums,
                          std::int64_t* mad, double* kept) {
  const std::size_t n = recs.size();
  std::size_t head = head_io;  // first record inside [t_k - half, t_k + half]
  std::size_t tail = tail_io;  // one past the last record inside
  for (std::size_t k = from; k < to; ++k) {
    const TimeUs t = recs[k]->timestamp_us;
    while (tail < n && recs[tail]->timestamp_us <= t + half) {
      slide<Lanes, true>(*recs[tail], sums);
      ++tail;
    }
    while (recs[head]->timestamp_us < t - half) {
      slide<Lanes, false>(*recs[head], sums);
      ++head;
    }
    if constexpr (kCenter) {
      const auto nwin = static_cast<double>(tail - head);
      if (k >= keep_lo && k < keep_hi) {
        center<Lanes, true>(*recs[k], sums, nwin, mad,
                            kept + (k - keep_lo) * stride, stride);
      } else {
        center<Lanes, false>(*recs[k], sums, nwin, mad, nullptr, stride);
      }
    }
  }
  head_io = head;
  tail_io = tail;
}

// The sweep for either lane layout, centering or (center == false) only
// moving the window, compiled once per ISA clone.
WB_SIMD_MULTIVERSION
void sweep_records(std::span<const wifi::CaptureRecord* const> recs,
                   bool csi, bool center, TimeUs half, std::size_t from,
                   std::size_t to, std::size_t& head, std::size_t& tail,
                   std::size_t keep_lo, std::size_t keep_hi,
                   std::size_t stride, double* sums, std::int64_t* mad,
                   double* kept) {
  if (csi && center) {
    sweep<CsiLanes, true>(recs, half, from, to, head, tail, keep_lo,
                          keep_hi, stride, sums, mad, kept);
  } else if (csi) {
    sweep<CsiLanes, false>(recs, half, from, to, head, tail, keep_lo,
                           keep_hi, stride, sums, mad, kept);
  } else if (center) {
    sweep<RssiLanes, true>(recs, half, from, to, head, tail, keep_lo,
                           keep_hi, stride, sums, mad, kept);
  } else {
    sweep<RssiLanes, false>(recs, half, from, to, head, tail, keep_lo,
                            keep_hi, stride, sums, mad, kept);
  }
}

// Records one kernel call adds into a lane's int64 MAD steps before they
// are folded into its MadSum: 2^15 records of at most 2^47 steps each
// (|c| <= 2^17, DESIGN.md §15) stay below 2^62.
constexpr std::size_t kFoldRecords = std::size_t{1} << 15;

// Lanes in the widest row: the CSI streams rounded up to whole packs.
constexpr std::size_t kMaxStride =
    (wifi::kNumCsiStreams + simd::kLanes - 1) / simd::kLanes * simd::kLanes;

// Each lane's MAD divisor from its exact sum of grid steps over n
// records: the steps scaled back and divided once by n, as the reference
// computes one series, with degenerate lanes (mad <= 0, padding
// included, or no records) dividing by an exact 1.0.
void divisors(const MadSum* steps, std::size_t n, std::span<double> mad) {
  if (n == 0) {
    for (double& m : mad) m = 1.0;
    return;
  }
  const auto records = static_cast<double>(n);
  for (std::size_t c = 0; c < mad.size(); ++c) {
    // Both conversions round once to nearest; the int64 one is a single
    // instruction, the 128-bit one a library call.
    const auto narrow = static_cast<std::int64_t>(steps[c]);
    const double sum = narrow == steps[c] ? static_cast<double>(narrow)
                                          : static_cast<double>(steps[c]);
    const double mean_abs =
        std::ldexp(sum, -kCenteredGridBits) / records;
    mad[c] = mean_abs <= 0.0 ? 1.0 : mean_abs;
  }
}

// Centers every usable record where it lies in the capture (no copy),
// stores the rows of records [keep_lo, keep_hi) into `kept`
// ((keep_hi - keep_lo) x stride), and leaves each lane's MAD divisor over
// *every* record in `mad` (size stride; divisors()). `sums` (size
// stride) is the window-sum scratch and `steps` (size stride) the MAD
// steps of one kernel call. collect_records checked that the records are
// sorted. The contract checks stay out of the clones: GCC treats a call
// to a target_clones function as nothrow, so a check throwing inside one
// (ContractPolicy::kThrow) would terminate instead of unwinding.
void center_records(std::span<const wifi::CaptureRecord* const> recs,
                    bool csi, TimeUs window_us, std::size_t keep_lo,
                    std::size_t keep_hi, std::size_t stride,
                    std::span<double> sums, std::span<std::int64_t> steps,
                    std::span<double> mad, std::span<double> kept) {
  WB_REQUIRE(window_us > TimeUs{},
             "moving-average window must be positive");
  WB_REQUIRE(keep_lo <= keep_hi && keep_hi <= recs.size() &&
                 kept.size() == (keep_hi - keep_lo) * stride,
             "kept rows must be a stride-wide row per kept record");
  WB_REQUIRE(sums.size() == stride && steps.size() == stride &&
                 mad.size() == stride && stride <= kMaxStride,
             "window sums and divisors need one lane per column");
  for (double& s : sums) s = 0.0;
  std::array<MadSum, kMaxStride> total{};
  std::size_t head = 0;
  std::size_t tail = 0;
  for (std::size_t from = 0; from < recs.size(); from += kFoldRecords) {
    const std::size_t to = std::min(recs.size(), from + kFoldRecords);
    for (std::int64_t& m : steps) m = 0;
    sweep_records(recs, csi, true, window_us / 2, from, to, head, tail,
                  keep_lo, keep_hi, stride, sums.data(), steps.data(),
                  kept.data());
    for (std::size_t c = 0; c < stride; ++c) total[c] += steps[c];
  }
  divisors(total.data(), recs.size(), mad);
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

namespace {

std::size_t num_streams_of(MeasurementSource source) {
  return source == MeasurementSource::kCsi ? wifi::kNumCsiStreams
                                           : phy::kNumAntennas;
}

/// The first record stamped at or after t (the records are sorted:
/// collect_records checked).
std::size_t first_at(std::span<const wifi::CaptureRecord* const> recs,
                     TimeUs t) {
  return static_cast<std::size_t>(
      std::lower_bound(recs.begin(), recs.end(), t,
                       [](const wifi::CaptureRecord* r, TimeUs at) {
                         return r->timestamp_us < at;
                       }) -
      recs.begin());
}

/// The kept records [lo, hi): the run stamped in [keep_from_us,
/// keep_to_us). Shapes `out` to them and copies their timestamps.
struct KeptRows {
  std::size_t lo = 0;
  std::size_t hi = 0;
};
KeptRows shape_kept(std::span<const wifi::CaptureRecord* const> recs,
                    MeasurementSource source, TimeUs keep_from_us,
                    TimeUs keep_to_us, ConditionedTrace& out) {
  KeptRows keep;
  keep.lo = first_at(recs, keep_from_us);
  keep.hi = std::max(keep.lo, first_at(recs, keep_to_us));
  out.resize(num_streams_of(source), keep.hi - keep.lo);
  for (std::size_t k = keep.lo; k < keep.hi; ++k) {
    out.timestamps[k - keep.lo] = recs[k]->timestamp_us;
  }
  return keep;
}

/// Divides the kept rows by the divisors in `mads` and reports the
/// conditioned trace of `n` usable records.
void finish_conditioning(std::size_t n, const std::vector<double>& mads,
                         ConditionedTrace& out) {
  divide_rows(out.rows.data(), out.num_packets(), out.stride(), mads.data());
  if (auto* m = obs::metrics()) {
    m->counter("reader.conditioning.traces_total").add(1);
    m->counter("reader.conditioning.packets_total").add(n);
    m->gauge("reader.conditioning.streams_count")
        .set(static_cast<double>(out.num_streams()));
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

std::uint64_t ceil_div(std::uint64_t x, std::uint64_t d) {
  return (x + d - 1) / d;
}

}  // namespace

void condition_records(MeasurementSource source, TimeUs movavg_window_us,
                       DecodeWorkspace& ws, ConditionedTrace& out,
                       TimeUs keep_from_us, TimeUs keep_to_us) {
  WB_REQUIRE(movavg_window_us > TimeUs{},
             "moving-average window must be positive");
  obs::ScopedTimer timer("reader.conditioning.wall_us");

  // The kept records are centered straight into out.rows (DESIGN.md §15),
  // then divided in place by their lanes' whole-trace MAD.
  const auto& recs = ws.records;
  const KeptRows keep =
      shape_kept(recs, source, keep_from_us, keep_to_us, out);
  const std::size_t stride = out.stride();
  ws.row_sums.resize(stride);
  ws.row_mad_steps.resize(stride);
  ws.row_mads.resize(stride);
  center_records(recs, source == MeasurementSource::kCsi, movavg_window_us,
                 keep.lo, keep.hi, stride, ws.row_sums, ws.row_mad_steps,
                 ws.row_mads, out.rows);
  finish_conditioning(recs.size(), ws.row_mads, out);
}

ScanConditioner::ScanConditioner(MeasurementSource source,
                                 TimeUs movavg_window_us)
    : source_(source),
      window_(movavg_window_us),
      stride_((num_streams_of(source) + simd::kLanes - 1) / simd::kLanes *
              simd::kLanes) {
  WB_REQUIRE(window_ > TimeUs{}, "moving-average window must be positive");
  closed_total_.assign(stride_, 0);
  open_total_.assign(stride_, 0);
  chunk_.assign(stride_, 0);
  for (Window* w : {&cursor_, &run_, &head_}) w->sums.assign(stride_, 0.0);
}

void ScanConditioner::reset() {
  restart(0);
  centered_ = 0;
}

void ScanConditioner::restart(std::uint64_t base) {
  base_ = seen_ = base;
  first_block_ = closed_lo_ = closed_hi_ = base / kScanBlockRecords;
  blocks_.clear();
  std::fill(closed_total_.begin(), closed_total_.end(), MadSum{0});
  has_cursor_ = false;
}

void ScanConditioner::run(Window& w, std::uint64_t to, const Plan& plan,
                          std::span<const wifi::CaptureRecord* const> recs,
                          std::size_t keep_lo, std::size_t keep_hi,
                          double* kept, bool park) {
  const bool csi = source_ == MeasurementSource::kCsi;
  const TimeUs half = window_ / 2;
  while (true) {
    const std::uint64_t k = w.next;
    if (park && k == plan.park) {
      cursor_ = w;  // same size: copies into the cursor's storage
      has_cursor_ = true;
    }
    if (k >= to) break;
    std::uint64_t stop = to;
    if (park && k < plan.park) stop = std::min(stop, plan.park);
    const bool center = k < plan.head_end || k >= plan.main;
    // Where this kernel call's MAD steps go: a closed block's record
    // (a kept row) is already summed, a record of a block that closes
    // now goes to its slot, any other to open_total_.
    std::int64_t* slot = nullptr;
    bool open = false;
    if (!center) {
      stop = std::min(stop, plan.main);
    } else {
      if (k < plan.head_end) stop = std::min(stop, plan.head_end);
      const std::uint64_t b = k / kScanBlockRecords;
      if (b >= closed_lo_ && b < closed_hi_) {
        stop = std::min(stop, closed_hi_ * kScanBlockRecords);
      } else if ((b + 1) * kScanBlockRecords <= plan.settled) {
        stop = std::min(stop, (b + 1) * kScanBlockRecords);
        slot = block(b);
      } else {
        open = true;
      }
      stop = std::min<std::uint64_t>(stop, k + kFoldRecords);
      std::fill(chunk_.begin(), chunk_.end(), 0);
      centered_ += stop - k;
    }
    auto head = static_cast<std::size_t>(w.head - base_);
    auto tail = static_cast<std::size_t>(w.tail - base_);
    sweep_records(recs, csi, center, half,
                  static_cast<std::size_t>(k - base_),
                  static_cast<std::size_t>(stop - base_), head, tail, keep_lo,
                  keep_hi, stride_, w.sums.data(), chunk_.data(), kept);
    w.head = base_ + head;
    w.tail = base_ + tail;
    w.next = stop;
    for (std::size_t c = 0; slot != nullptr && c < stride_; ++c) {
      slot[c] += chunk_[c];
    }
    for (std::size_t c = 0; open && c < stride_; ++c) {
      open_total_[c] += chunk_[c];
    }
  }
}

void ScanConditioner::condition(DecodeWorkspace& ws, ConditionedTrace& out,
                                TimeUs keep_from_us, TimeUs keep_to_us) {
  obs::ScopedTimer timer("reader.conditioning.wall_us");
  const std::span<const wifi::CaptureRecord* const> recs(ws.records);
  const std::size_t n = recs.size();
  WB_REQUIRE(n >= seen_ - base_,
             "a scan's buffer must keep every record trim() did not drop");
  const KeptRows keep =
      shape_kept(recs, source_, keep_from_us, keep_to_us, out);
  std::fill(open_total_.begin(), open_total_.end(), MadSum{0});
  if (n == 0) {
    restart(base_);
  } else {
    const std::uint64_t end = base_ + n;
    const std::uint64_t keep_lo = base_ + keep.lo;
    constexpr std::uint64_t kB = kScanBlockRecords;
    // A record stamped before the newest one's window can gain no record
    // in its own (every later record is stamped no earlier than the
    // newest), so its value is final: the blocks wholly before the first
    // other record close in this call.
    Plan plan;
    plan.settled =
        base_ + first_at(recs, recs.back()->timestamp_us - window_ / 2);
    const std::uint64_t close_to =
        std::max(first_block_, plan.settled / kB);
    // Centered: the blocks a trim reopened (up to head_end), and every
    // record from the first kept row or the first unclosed block on
    // (main). The next call keeps no row before keep_lo and finds every
    // block before close_to closed, so its sweep resumes at park.
    plan.head_end = std::max(base_, closed_lo_ * kB);
    plan.main = std::max(base_, std::min(keep_lo, closed_hi_ * kB));
    plan.park = std::max(base_, std::min(keep_lo, close_to * kB));
    blocks_.resize((close_to - first_block_) * stride_);
    for (std::uint64_t b = first_block_; b < close_to; ++b) {
      if (b < closed_lo_ || b >= closed_hi_) {
        std::fill_n(block(b), stride_, std::int64_t{0});
      }
    }
    double* const kept = out.rows.data();
    if (has_cursor_ && cursor_.next >= plan.head_end &&
        cursor_.next <= plan.main) {
      // Resume at the cursor; the reopened head blocks sweep on their own
      // from an empty window.
      if (plan.head_end > base_) {
        head_.start_at(base_);
        run(head_, plan.head_end, plan, recs, keep.lo, keep.hi, kept,
            false);
      }
      run_ = cursor_;
    } else {
      run_.start_at(base_);
    }
    has_cursor_ = false;
    run(run_, end, plan, recs, keep.lo, keep.hi, kept, true);
    for (std::uint64_t b = first_block_; b < close_to; ++b) {
      if (b >= closed_lo_ && b < closed_hi_) continue;
      const std::int64_t* slot = block(b);
      for (std::size_t c = 0; c < stride_; ++c) closed_total_[c] += slot[c];
    }
    closed_lo_ = first_block_;
    closed_hi_ = close_to;
    seen_ = end;
  }
  for (std::size_t c = 0; c < stride_; ++c) open_total_[c] += closed_total_[c];
  ws.row_mads.resize(stride_);
  divisors(open_total_.data(), n, ws.row_mads);
  finish_conditioning(n, ws.row_mads, out);
}

void ScanConditioner::trim(const wifi::CaptureTrace& buffer,
                           std::size_t first_kept) {
  const bool csi = source_ == MeasurementSource::kCsi;
  const auto usable = [csi](const wifi::CaptureRecord& r) {
    return !csi || r.has_csi;
  };
  std::uint64_t drop = 0;
  TimeUs last_dropped{0};
  for (std::size_t i = 0; i < first_kept; ++i) {
    if (!usable(buffer[i])) continue;
    ++drop;
    last_dropped = buffer[i].timestamp_us;
  }
  if (drop == 0) return;  // the usable records, and so every value, stay
  const std::uint64_t base = base_ + drop;
  if (base >= seen_) {
    restart(base);  // no record the last call saw stays
    return;
  }
  // The records stamped within half a window after the last dropped one
  // had it in their window: their blocks reopen.
  const TimeUs reach = last_dropped + window_ / 2;
  std::uint64_t reached = base;
  for (std::size_t i = first_kept;
       i < buffer.size() && buffer[i].timestamp_us <= reach; ++i) {
    reached += usable(buffer[i]) ? 1 : 0;
  }
  const std::uint64_t reopen = ceil_div(reached, kScanBlockRecords);
  const std::uint64_t first = base / kScanBlockRecords;
  if (reopen >= closed_hi_) {
    // Every closed block reopens: the next call centers every record.
    const std::uint64_t seen = seen_;
    restart(base);
    seen_ = seen;
    return;
  }
  for (std::uint64_t b = closed_lo_; b < reopen; ++b) {
    const std::int64_t* slot = block(b);
    for (std::size_t c = 0; c < stride_; ++c) closed_total_[c] -= slot[c];
  }
  closed_lo_ = std::max(closed_lo_, reopen);
  const auto shift = static_cast<std::size_t>(first - first_block_) * stride_;
  std::copy(blocks_.begin() + static_cast<std::ptrdiff_t>(shift),
            blocks_.end(), blocks_.begin());
  blocks_.resize(blocks_.size() - shift);
  first_block_ = first;
  // The cursor resumes past the reopened blocks if no dropped record is
  // in its window; otherwise the next call starts afresh.
  has_cursor_ = has_cursor_ &&
                cursor_.next >= closed_lo_ * kScanBlockRecords &&
                cursor_.head >= base;
  base_ = base;
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
