#include "reader/uplink_decoder.h"

#include <algorithm>
#include <cmath>

#include "obs/flight_recorder.h"
#include "obs/forensics.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "reader/slot_sync.h"
#include "util/check.h"
#include "util/dsp.h"
#include "wifi/trace_io.h"

namespace wb::reader {

UplinkDecoder::UplinkDecoder(UplinkDecoderConfig cfg)
    : cfg_(std::move(cfg)), preamble_bipolar_(to_bipolar(cfg_.preamble)) {
  WB_REQUIRE(!cfg_.preamble.empty());
  WB_REQUIRE(cfg_.bit_duration_us > TimeUs{});
  WB_REQUIRE(cfg_.num_good_streams > 0);
  WB_REQUIRE(cfg_.movavg_window_us > TimeUs{});
  WB_REQUIRE(cfg_.hysteresis_sigma >= 0.0);
  WB_REQUIRE(!(cfg_.search_from && cfg_.search_to) ||
                 *cfg_.search_to >= *cfg_.search_from,
             "search window must satisfy search_to >= search_from — an "
             "inverted window used to be silently collapsed to a single "
             "probe offset");
}

UplinkDecoder::SearchRange UplinkDecoder::search_range(
    const PacketSpan& whole) const {
  WB_REQUIRE(whole.packets > 0, "a search range needs a packet");
  TimeUs from = cfg_.search_from.value_or(whole.first_us);
  TimeUs to =
      cfg_.search_to.value_or(whole.last_us - cfg_.frame_duration_us());
  from = std::max(from, whole.first_us - cfg_.bit_duration_us);
  // The constructor rejects an inverted *configured* window; this clamp
  // only covers the data-derived default (a trace shorter than one frame
  // makes last_us - frame_duration precede `from`), where probing the single
  // offset `from` is the right degenerate search.
  to = std::max(to, from);
  return {from, to};
}

bool UplinkDecoder::find_frame(const ConditionedTrace& ct,
                               DecodeWorkspace& ws, TimeUs& start_us,
                               double& score,
                               obs::DropReason& failure) const {
  return sync(ct, packet_span(ct), ws, start_us, score, failure);
}

bool UplinkDecoder::sync(const ConditionedTrace& ct, const PacketSpan& whole,
                         DecodeWorkspace& ws, TimeUs& start_us,
                         double& score, obs::DropReason& failure) const {
  if (whole.packets == 0 || ct.num_streams() == 0) {
    failure = obs::DropReason::kEmptyTrace;
    return false;
  }

  const auto [from, to] = search_range(whole);
  const TimeUs step =
      std::max(cfg_.bit_duration_us / kSyncStepsPerBit, TimeUs{1});

  const std::size_t g =
      std::min(cfg_.num_good_streams, ct.num_streams());
  const double need =
      kMinPreambleFill * static_cast<double>(preamble_bipolar_.size());

  bool has_best = false;
  TimeUs best_start{0};
  double best_score = 0.0;
  sync_search(ct, preamble_bipolar_, cfg_.bit_duration_us, need, g, from, to,
              step, ws, [&](TimeUs tau, double tau_score) {
                // First-max-wins: the strict `>` keeps the *earliest* tau
                // among equal peaks. Load-bearing and pinned by tests — a
                // reassociated reduction or a `>=` here would silently
                // shift which frame start wins.
                if (!has_best || tau_score > best_score) {
                  has_best = true;
                  best_start = tau;
                  best_score = tau_score;
                  ws.best_streams.assign(
                      ws.order.begin(),
                      ws.order.begin() + static_cast<long>(g));
                  ws.best_polarity.resize(g);
                  for (std::size_t i = 0; i < g; ++i) {
                    ws.best_polarity[i] =
                        ws.corrs[ws.order[i]] >= 0.0 ? 1.0 : -1.0;
                  }
                }
              });
  if (!has_best || best_score <= cfg_.sync_threshold) {
    // A best score of exactly 0 means no candidate window ever met the
    // preamble-fill bar — the preamble was never seen. A positive score
    // at/below the threshold is a correlation too weak to trust.
    failure = (!has_best || best_score <= 0.0) ? obs::DropReason::kNoPreamble
                                               : obs::DropReason::kLowSnr;
    return false;
  }
  start_us = best_start;
  score = best_score;
  return true;
}

double UplinkDecoder::preamble_noise_variance(const ConditionedTrace& ct,
                                              std::size_t stream,
                                              double polarity,
                                              TimeUs start_us) const {
  WB_REQUIRE(stream < ct.num_streams(), "stream index out of range");
  const auto& ts = ct.timestamps;
  const TimeUs end =
      start_us + cfg_.bit_duration_us *
                     static_cast<std::int64_t>(cfg_.preamble.size());
  double sum = 0.0, sum2 = 0.0;
  std::size_t n = 0;
  for (std::size_t k = lower_index(ts, start_us);
       k < ts.size() && ts[k] < end; ++k) {
    const auto bit = static_cast<std::size_t>((ts[k] - start_us) /
                                              cfg_.bit_duration_us);
    const double r = polarity * ct.at(k, stream) - preamble_bipolar_[bit];
    sum += r;
    sum2 += r * r;
    ++n;
  }
  if (n < 2) return 1.0;  // no information: neutral weight
  const double mean = sum / static_cast<double>(n);
  const double var =
      (sum2 - static_cast<double>(n) * mean * mean) /
      static_cast<double>(n - 1);
  // Quantised measurements can produce a numerically zero variance; floor
  // it so 1/sigma^2 weights stay finite.
  const double floored = std::max(var, 1e-6);
  WB_ENSURE(floored > 0.0);
  return floored;
}

UplinkDecodeResult UplinkDecoder::decode(
    const wifi::CaptureTrace& trace) const {
  DecodeWorkspace ws;
  UplinkDecodeResult out;
  decode_into(trace, ws, out);
  return out;
}

void UplinkDecoder::decode_into(const wifi::CaptureTrace& trace,
                                DecodeWorkspace& ws, UplinkDecodeResult& out,
                                ScanConditioner* scans) const {
  WB_REQUIRE(scans == nullptr ||
                 (scans->source() == cfg_.source &&
                  scans->movavg_window_us() == cfg_.movavg_window_us),
             "a scan conditioner must condition as this decoder does");
  // Sync reads the slots of candidates [from, to], the preamble variance
  // and MRC the frame from the chosen start, so nothing past
  // to + frame_duration or before from is read: conditioning keeps only
  // that span. The search range comes from the usable records, exactly
  // as find_frame would derive it from the whole conditioned trace.
  const PacketSpan whole = collect_records(trace, cfg_.source, ws);
  const SearchRange range =
      whole.packets > 0 ? search_range(whole) : SearchRange{};
  const TimeUs keep_to = range.to + cfg_.frame_duration_us();
  if (scans != nullptr) {
    scans->condition(ws, ws.conditioned, range.from, keep_to);
  } else {
    condition_records(cfg_.source, cfg_.movavg_window_us, ws, ws.conditioned,
                      range.from, keep_to);
  }
  decode_span_into(ws.conditioned, whole, ws, out);
  // This overload still holds the raw capture, so it is the one place a
  // failed attempt can leave a replayable exemplar behind. wants_exemplar
  // gates the (allocating) serialization to the first few drops per
  // reason.
  if (out.drop_reason) {
    auto* fx = obs::forensics();
    if (fx != nullptr &&
        fx->wants_exemplar(obs::DropStage::kUplinkDecoder,
                           *out.drop_reason)) {
      fx->add_exemplar(obs::DropStage::kUplinkDecoder, *out.drop_reason,  // wb-analyze: allow(realtime-alloc): exemplar serialization is wants_exemplar-gated to the first exemplar_cap drops per (stage, reason) — cold by construction
                       wifi::capture_csv_string(trace));
    }
  }
}

UplinkDecodeResult UplinkDecoder::decode_conditioned(
    const ConditionedTrace& ct) const {
  DecodeWorkspace ws;
  UplinkDecodeResult out;
  decode_conditioned_into(ct, ws, out);
  return out;
}

void UplinkDecoder::decode_conditioned_into(const ConditionedTrace& ct,
                                            DecodeWorkspace& ws,
                                            UplinkDecodeResult& out) const {
  decode_span_into(ct, packet_span(ct), ws, out);
}

void UplinkDecoder::decode_span_into(const ConditionedTrace& ct,
                                     const PacketSpan& whole,
                                     DecodeWorkspace& ws,
                                     UplinkDecodeResult& out) const {
  obs::ScopedTimer timer("reader.uplink.decode_wall_us");
  auto* m = obs::metrics();
  auto* fx = obs::forensics();
  if (m != nullptr) m->counter("reader.uplink.decodes_total").add(1);
  if (fx != nullptr) fx->record_attempt(obs::DropStage::kUplinkDecoder);

  out.found = false;
  out.start_us = TimeUs{};
  out.sync_score = 0.0;
  out.payload.clear();
  out.streams.clear();
  out.polarity.clear();
  out.weights.clear();
  out.confidence.clear();
  out.packets_used = 0;
  out.drop_reason.reset();

  // Every failure exit funnels through here: one (stage, reason) drop
  // plus a flight-recorder breadcrumb with the sync evidence.
  const auto drop = [&](obs::DropReason reason, double best_score) {
    out.drop_reason = reason;
    if (fx != nullptr) {
      fx->record_drop(obs::DropStage::kUplinkDecoder, reason);
    }
    if (auto* rec = obs::recorder()) {
      rec->log(whole.first_us, obs::Severity::kWarn, "reader.uplink",
               obs::to_string(reason),
               {{"sync_score", best_score},
                {"packets", static_cast<double>(whole.packets)}});
    }
  };

  TimeUs start{0};
  double score = 0.0;
  obs::DropReason sync_failure{};
  if (!sync(ct, whole, ws, start, score, sync_failure)) {
    drop(sync_failure, score);
    return;
  }

  out.found = true;
  out.start_us = start;
  out.sync_score = score;
  out.streams.assign(ws.best_streams.begin(), ws.best_streams.end());
  out.polarity.assign(ws.best_polarity.begin(), ws.best_polarity.end());

  if (m != nullptr) {
    m->counter("reader.uplink.sync_found_total").add(1);
    m->gauge("reader.uplink.sync_score_ratio").set(score);
    m->gauge("reader.uplink.streams_selected_count")
        .set(static_cast<double>(out.streams.size()));
  }

  // MRC weights from preamble-estimated noise variance (§3.2 step 2).
  out.weights.resize(out.streams.size());
  for (std::size_t i = 0; i < out.streams.size(); ++i) {
    const double var = preamble_noise_variance(
        ct, out.streams[i], out.polarity[i], start);
    WB_REQUIRE(var > 0.0, "MRC weight 1/sigma^2 needs a positive variance");
    out.weights[i] = 1.0 / var;
  }
  if (m != nullptr && out.weights.size() > 1) {
    // Dispersion of the MRC weights: max/min per decode. Near 1 means the
    // selected streams are equally trustworthy; large means one stream
    // dominates the combination.
    const auto [lo, hi] =
        std::minmax_element(out.weights.begin(), out.weights.end());
    if (*lo > 0.0) {
      m->histogram("reader.uplink.mrc_weight_ratio").record(*hi / *lo);
    }
  }

  // Combined signal y_k over the whole frame interval: per packet, the
  // chain ((0 + w0*p0*x0) + w1*p1*x1) + ... over the selected streams in
  // selection order, read from the packet's row, then one division by
  // wsum.
  const auto& ts = ct.timestamps;
  const TimeUs frame_end = start + cfg_.frame_duration_us();
  const std::size_t k0 = lower_index(ts, start);
  const std::size_t k1 = lower_index(ts, frame_end);
  const std::size_t nwin = k1 - k0;
  auto& y = ws.y;
  auto& yt = ws.yt;
  y.resize(nwin);
  yt.assign(ts.begin() + static_cast<std::ptrdiff_t>(k0),
            ts.begin() + static_cast<std::ptrdiff_t>(k1));
  double wsum = 0.0;
  for (double w : out.weights) wsum += w;
  if (wsum <= 0.0) wsum = 1.0;
  for (std::size_t k = 0; k < nwin; ++k) {
    const double* row = ct.row(k0 + k);
    double acc = 0.0;
    for (std::size_t i = 0; i < out.streams.size(); ++i) {
      acc = out.weights[i] * out.polarity[i] * row[out.streams[i]] + acc;
    }
    y[k] = acc / wsum;
  }
  out.packets_used = y.size();

  // Hysteresis thresholds from the combined signal's own statistics
  // (§3.2 step 3: mu +- f(sigma)).
  const double mu = mean(y);
  const double sd = stddev(y);
  const double th1 = mu + cfg_.hysteresis_sigma * sd;
  const double th0 = mu - cfg_.hysteresis_sigma * sd;
  WB_INVARIANT(th0 <= th1, "hysteresis thresholds must be ordered");

  // Per-bit majority vote over timestamp-binned packets.
  const TimeUs payload_start =
      start + cfg_.bit_duration_us *
                  static_cast<std::int64_t>(cfg_.preamble.size());
  out.payload.assign(cfg_.payload_bits, 0);
  out.confidence.assign(cfg_.payload_bits, 0.0);
  ws.votes_one.assign(cfg_.payload_bits, 0);
  ws.votes_zero.assign(cfg_.payload_bits, 0);
  ws.slot_sum.assign(cfg_.payload_bits, 0.0);
  ws.slot_n.assign(cfg_.payload_bits, 0);
  for (std::size_t k = 0; k < y.size(); ++k) {
    if (yt[k] < payload_start) continue;
    const auto bit = static_cast<std::size_t>((yt[k] - payload_start) /
                                              cfg_.bit_duration_us);
    if (bit >= cfg_.payload_bits) break;
    if (y[k] > th1) ++ws.votes_one[bit];
    else if (y[k] < th0) ++ws.votes_zero[bit];
    ws.slot_sum[bit] += y[k];
    ++ws.slot_n[bit];
  }

  // Sync can lock onto preamble-region energy while not a single packet
  // lands in the payload interval; every bit decision below would then be
  // the mu-fallback guess. That is not a decode — reject the frame.
  std::size_t payload_packets = 0;
  for (const int n : ws.slot_n) {
    payload_packets += static_cast<std::size_t>(n);
  }
  if (payload_packets == 0) {
    const double best_score = out.sync_score;
    out.found = false;
    out.start_us = TimeUs{};
    out.sync_score = 0.0;
    out.payload.clear();
    out.streams.clear();
    out.polarity.clear();
    out.weights.clear();
    out.confidence.clear();
    out.packets_used = 0;
    drop(obs::DropReason::kSlicerAmbiguous, best_score);
    return;
  }

  for (std::size_t b = 0; b < cfg_.payload_bits; ++b) {
    const int total = ws.votes_one[b] + ws.votes_zero[b];
    if (ws.votes_one[b] != ws.votes_zero[b]) {
      out.payload[b] = ws.votes_one[b] > ws.votes_zero[b] ? 1 : 0;
      out.confidence[b] =
          total > 0 ? std::abs(ws.votes_one[b] - ws.votes_zero[b]) /
                          static_cast<double>(total)
                    : 0.0;
    } else {
      // All packets abstained (hysteresis band) or tie: fall back to the
      // sign of the slot mean against mu.
      const double slot_mean =
          ws.slot_n[b] > 0 ? ws.slot_sum[b] / static_cast<double>(ws.slot_n[b])
                           : mu;
      out.payload[b] = slot_mean > mu ? 1 : 0;
      out.confidence[b] = 0.0;
    }
  }
  if (m != nullptr) {
    m->counter("reader.uplink.packets_used_total").add(out.packets_used);
    m->counter("reader.uplink.bits_decoded_total").add(out.payload.size());
  }
  if (fx != nullptr) fx->record_decode(obs::DropStage::kUplinkDecoder);
  if (auto* tr = obs::tracer()) {
    tr->complete(tr->lane("reader"), "uplink_frame", "reader",  // wb-analyze: allow(realtime-alloc): Chrome-trace span capture — tracer is nullptr outside diagnostic runs, and span events are inherently allocating
                 out.start_us,
                 static_cast<TimeUs>(cfg_.frame_duration_us()),
                 {{"sync_score", out.sync_score},
                  {"packets_used",
                   static_cast<double>(out.packets_used)}});
  }
}

UplinkDecoderConfig rssi_decoder_config(const UplinkDecoderConfig& base) {
  UplinkDecoderConfig cfg = base;
  cfg.source = MeasurementSource::kRssi;
  cfg.num_good_streams = 1;  // best antenna only (§3.3)
  return cfg;
}

}  // namespace wb::reader
