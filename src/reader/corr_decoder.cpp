#include "reader/corr_decoder.h"

#include <algorithm>
#include <cmath>

#include "obs/flight_recorder.h"
#include "obs/forensics.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/check.h"
#include "wifi/trace_io.h"

#include "reader/decode_workspace.h"
#include "reader/slot_sync.h"
#include "util/simd.h"

namespace wb::reader {
namespace {

/// Above this winsorised-sample share, a failed sync is attributed to
/// clipping (interference the clamp fought) rather than a missing
/// preamble.
constexpr double kClippedDistrustFraction = 0.05;

/// Clamps `n` rows of `stride` lanes to +-kClipSigma into `out` (the pack
/// clamp is std::clamp lane for lane) and returns how many of the real
/// lanes [0, num_streams) lay outside the band. Each clamped sample adds
/// an exact 1.0 to its lane's count, so the count is an exact integer
/// whatever order the lanes are summed in.
WB_SIMD_MULTIVERSION
std::size_t winsorise_rows(const double* rows, std::size_t n,
                           std::size_t num_streams, std::size_t stride,
                           double* out) {
  using P = simd::dpack;
  constexpr std::size_t L = simd::kLanes;
  const P lo = P::broadcast(-kClipSigma);
  const P hi = P::broadcast(kClipSigma);
  // Lanes [0, whole) fill whole packs of real streams; the pack at
  // `whole`, when there is one, mixes the last real lanes with padding.
  const std::size_t whole = num_streams / L * L;
  P real = P::zero();
  for (std::size_t l = 0; l < L; ++l) {
    real.lane[l] = whole + l < num_streams ? 1.0 : 0.0;
  }
  P count = P::zero();
  for (std::size_t k = 0; k < n; ++k) {
    const double* src = rows + k * stride;
    double* dst = out + k * stride;
    for (std::size_t g = 0; g < whole; g += L) {
      const P v = P::load(src + g);
      count += P::less(hi, v) + P::less(v, lo);
      P::clamp(v, lo, hi).store(dst + g);
    }
    if (whole < stride) {
      const P v = P::load(src + whole);
      count += (P::less(hi, v) + P::less(v, lo)) * real;
      P::clamp(v, lo, hi).store(dst + whole);
    }
  }
  return static_cast<std::size_t>(count.hsum());
}

}  // namespace

CodedUplinkDecoder::CodedUplinkDecoder(CodedDecoderConfig cfg)
    : cfg_(std::move(cfg)) {
  WB_REQUIRE(cfg_.codes.length() >= 2,
             "orthogonal codes need at least two chips");
  WB_REQUIRE(!cfg_.preamble.empty());
  WB_REQUIRE(cfg_.chip_duration_us > TimeUs{});
  WB_REQUIRE(cfg_.num_good_streams > 0);
  WB_REQUIRE(!(cfg_.search_from && cfg_.search_to) ||
                 *cfg_.search_to >= *cfg_.search_from,
             "search window must satisfy search_to >= search_from — an "
             "inverted window used to be silently collapsed to a single "
             "probe offset");
  // Expand the preamble into its chip template once.
  preamble_chips_bipolar_.reserve(cfg_.preamble.size() *
                                  cfg_.chips_per_bit());
  for (std::uint8_t b : cfg_.preamble) {
    const BitVec& code = b ? cfg_.codes.one : cfg_.codes.zero;
    for (std::uint8_t c : code) {
      preamble_chips_bipolar_.push_back(c ? 1.0 : -1.0);
    }
  }
  code_diff_bipolar_.reserve(cfg_.chips_per_bit());
  for (std::size_t c = 0; c < cfg_.chips_per_bit(); ++c) {
    code_diff_bipolar_.push_back((cfg_.codes.one[c] ? 1.0 : -1.0) -
                                 (cfg_.codes.zero[c] ? 1.0 : -1.0));
  }
}

CodedDecodeResult CodedUplinkDecoder::decode(
    const wifi::CaptureTrace& trace) const {
  DecodeWorkspace ws;
  CodedDecodeResult out;
  decode_into(trace, ws, out);
  return out;
}

void CodedUplinkDecoder::decode_into(const wifi::CaptureTrace& trace,
                                     DecodeWorkspace& ws,
                                     CodedDecodeResult& out) const {
  condition_into(trace, cfg_.source, cfg_.movavg_window_us, ws,
                 ws.conditioned);
  decode_conditioned_into(ws.conditioned, ws, out);
  // Raw-trace overload: failed attempts leave a replayable exemplar.
  if (out.drop_reason) {
    auto* fx = obs::forensics();
    if (fx != nullptr &&
        fx->wants_exemplar(obs::DropStage::kCorrDecoder, *out.drop_reason)) {
      fx->add_exemplar(obs::DropStage::kCorrDecoder, *out.drop_reason,  // wb-analyze: allow(realtime-alloc): exemplar serialization is wants_exemplar-gated to the first exemplar_cap drops per (stage, reason) — cold by construction
                       wifi::capture_csv_string(trace));
    }
  }
}

CodedDecodeResult CodedUplinkDecoder::decode_conditioned(
    const ConditionedTrace& ct) const {
  DecodeWorkspace ws;
  CodedDecodeResult out;
  decode_conditioned_into(ct, ws, out);
  return out;
}

void CodedUplinkDecoder::decode_conditioned_into(const ConditionedTrace& ct_in,
                                                 DecodeWorkspace& ws,
                                                 CodedDecodeResult& out) const {
  obs::ScopedTimer timer("reader.corr.decode_wall_us");
  auto* fx = obs::forensics();
  if (auto* m = obs::metrics()) {
    m->counter("reader.corr.decodes_total").add(1);
  }
  if (fx != nullptr) fx->record_attempt(obs::DropStage::kCorrDecoder);
  const auto drop = [&](obs::DropReason reason) {
    out.drop_reason = reason;
    if (fx != nullptr) fx->record_drop(obs::DropStage::kCorrDecoder, reason);
    if (auto* rec = obs::recorder()) {
      rec->log(ct_in.num_packets() > 0 ? ct_in.timestamps.front() : TimeUs{0},
               obs::Severity::kWarn, "reader.corr", obs::to_string(reason),
               {{"sync_score", out.sync_score},
                {"clipped_fraction", out.clipped_fraction}});
    }
  };
  out.found = false;
  out.start_us = TimeUs{};
  out.sync_score = 0.0;
  out.payload.clear();
  out.streams.clear();
  out.polarity.clear();
  out.weights.clear();
  out.margin.clear();
  out.clipped_fraction = 0.0;
  out.drop_reason.reset();
  if (ct_in.num_packets() == 0 || ct_in.num_streams() == 0) {
    drop(obs::DropReason::kEmptyTrace);
    return;
  }

  // Winsorise against correlated outliers (see kClipSigma) into the
  // workspace rows, in one pass that also counts the clamped samples.
  WB_REQUIRE(ct_in.rows.size() == ct_in.num_packets() * ct_in.stride(),
             "conditioned rows must cover every packet");
  ws.clipped.resize(ct_in.num_streams(), ct_in.num_packets());
  std::copy(ct_in.timestamps.begin(), ct_in.timestamps.end(),
            ws.clipped.timestamps.begin());
  const std::size_t clamped =
      winsorise_rows(ct_in.rows.data(), ct_in.num_packets(),
                     ct_in.num_streams(), ct_in.stride(),
                     ws.clipped.rows.data());
  const std::size_t total = ct_in.num_packets() * ct_in.num_streams();
  out.clipped_fraction =
      static_cast<double>(clamped) / static_cast<double>(total);
  const ConditionedTrace& ct = ws.clipped;

  const std::size_t g = std::min(cfg_.num_good_streams, ct.num_streams());

  // --- Frame sync: the shared search kernel (slot_sync.h) against the
  // coded preamble ---
  const double need =
      kMinChipFill * static_cast<double>(preamble_chips_bipolar_.size());
  TimeUs best_start{0};
  double best_score = -1.0;
  if (cfg_.known_start) {
    best_start = *cfg_.known_start;
  } else {
    const TimeUs t0 = ct.timestamps.front();
    const TimeUs t1 = ct.timestamps.back();
    const TimeUs from = cfg_.search_from.value_or(t0);
    const TimeUs to =
        std::max(from, cfg_.search_to.value_or(t1 - cfg_.frame_duration_us()));
    const TimeUs step =
        std::max(cfg_.chip_duration_us / kSyncStepsPerChip, TimeUs{1});
    sync_search(ct, preamble_chips_bipolar_, cfg_.chip_duration_us, need, g,
                from, to, step, ws, [&](TimeUs tau, double score) {
                  // First-max-wins: the strict `>` keeps the *earliest*
                  // tau among equal peaks. Pinned by tests — see the
                  // uplink decoder's sync search.
                  if (score > best_score) {
                    best_score = score;
                    best_start = tau;
                  }
                });
  }
  // Probe the chosen start alone so ws.corrs/ws.order describe it.
  sync_search(ct, preamble_chips_bipolar_, cfg_.chip_duration_us, need, g,
              best_start, best_start, cfg_.chip_duration_us, ws,
              [&best_score](TimeUs, double score) { best_score = score; });

  out.found = best_score > 0.0;
  if (!out.found) {
    // A correlator that clamped a substantial share of its input was
    // fighting interference, not silence: blame the clipping, otherwise
    // the coded preamble simply never appeared.
    drop(out.clipped_fraction > kClippedDistrustFraction
             ? obs::DropReason::kClipped
             : obs::DropReason::kNoPreamble);
    return;
  }
  out.start_us = best_start;
  out.sync_score = best_score;
  out.streams.assign(ws.order.begin(),
                     ws.order.begin() + static_cast<long>(g));
  out.polarity.resize(g);
  out.weights.resize(g);
  for (std::size_t i = 0; i < g; ++i) {
    const double c = ws.corrs[out.streams[i]];
    out.polarity[i] = c >= 0.0 ? 1.0 : -1.0;
    out.weights[i] = std::abs(c);
  }

  // --- Payload: correlate each bit's chip block against both codes ---
  const std::size_t l = cfg_.chips_per_bit();
  out.payload.assign(cfg_.payload_bits, 0);
  out.margin.assign(cfg_.payload_bits, 0.0);
  // One set of chip edges per chip block, shared by every selected stream
  // (the edges depend only on the timestamps).
  const auto& edges = ws.sync_edges;
  for (std::size_t b = 0; b < cfg_.payload_bits; ++b) {
    const TimeUs block_start =
        best_start +
        cfg_.chip_duration_us *
            static_cast<std::int64_t>((cfg_.preamble.size() + b) * l);
    slot_edges_into(ct.timestamps, block_start, cfg_.chip_duration_us, l,
                    ws.sync_edges);
    double combined = 0.0;
    for (std::size_t i = 0; i < out.streams.size(); ++i) {
      const std::size_t s = out.streams[i];
      double diff = 0.0;  // corr(one) - corr(zero)
      for (std::size_t c = 0; c < l; ++c) {
        if (edges[c + 1] == edges[c]) continue;
        double sum = 0.0;
        for (std::size_t p = edges[c]; p < edges[c + 1]; ++p) {
          sum += ct.at(p, s);
        }
        diff += (sum / static_cast<double>(edges[c + 1] - edges[c])) *
                code_diff_bipolar_[c];
      }
      combined += out.weights[i] * out.polarity[i] * diff;
    }
    out.payload[b] = combined > 0.0 ? 1 : 0;
    out.margin[b] = std::abs(combined);
  }
  if (auto* m = obs::metrics()) {
    m->counter("reader.corr.sync_found_total").add(1);
    m->counter("reader.corr.bits_decoded_total").add(out.payload.size());
    m->gauge("reader.corr.sync_score_ratio").set(out.sync_score);
    auto& margin_hist = m->histogram("reader.corr.bit_margin_ratio");
    for (const double margin : out.margin) margin_hist.record(margin);
  }
  if (fx != nullptr) fx->record_decode(obs::DropStage::kCorrDecoder);
}

}  // namespace wb::reader
