// Oracle for the row-major conditioned trace (DESIGN.md §10, §15). The
// decoders read ConditionedTrace's [packet][lane] rows and run sync across
// the stream lanes. Below is a frozen copy of the per-stream pipeline they
// replaced: conditioning's transpose-divide into [stream][packet] vectors,
// the per-stream sync correlation, the lane-loop winsoriser, and the
// per-stream MRC, preamble variance and coded payload. Every sync
// candidate's correlations, ranking and score, and every field of every
// uplink and coded result, must match it bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "core/uplink_sim.h"
#include "reader/conditioning.h"
#include "reader/corr_decoder.h"
#include "reader/decode_workspace.h"
#include "reader/slot_sync.h"
#include "reader/uplink_decoder.h"
#include "tag/modulator.h"
#include "util/codes.h"
#include "util/dsp.h"
#include "util/simd.h"
#include "wifi/traffic.h"

namespace wb::reader {
namespace {

// ---- the frozen per-stream pipeline ----

/// The per-stream layout the decoders read before the row-major trace.
struct FrozenTrace {
  std::vector<TimeUs> timestamps;            ///< per packet
  std::vector<std::vector<double>> streams;  ///< [stream][packet]

  std::size_t num_packets() const { return timestamps.size(); }
  std::size_t num_streams() const { return streams.size(); }
};

// Conditioning's transpose, frozen: the centered [packet][lane] rows
// divided by each lane's MAD on the way into the stream vectors.
void frozen_transpose_divide(const double* rows, std::size_t stride,
                             std::size_t n, const double* mad,
                             std::size_t num_streams,
                             std::vector<std::vector<double>>& streams) {
  using P = simd::dpack;
  constexpr std::size_t L = simd::kLanes;
  for (std::size_t g = 0; g < num_streams; g += L) {
    const std::size_t lanes = std::min(L, num_streams - g);
    const P d = P::load(mad + g);
    double* dst[L] = {};
    for (std::size_t l = 0; l < lanes; ++l) dst[l] = streams[g + l].data();
    std::size_t k = 0;
    if (lanes == L) {
      for (; k + L <= n; k += L) {
        P v[L];
        for (std::size_t r = 0; r < L; ++r) {
          v[r] = P::load(rows + (k + r) * stride + g) / d;
        }
        for (std::size_t l = 0; l < L; ++l) {
          P w;
          for (std::size_t r = 0; r < L; ++r) w.lane[r] = v[r].lane[l];
          w.store(dst[l] + k);
        }
      }
    }
    for (; k < n; ++k) {
      const P v = P::load(rows + k * stride + g) / d;
      for (std::size_t l = 0; l < lanes; ++l) dst[l][k] = v.lane[l];
    }
  }
}

/// Each lane centered by the span kernel the centering sweep replays,
/// the MAD summed over every row in row order, then the transpose-divide.
FrozenTrace frozen_condition(const wifi::CaptureTrace& trace,
                             MeasurementSource source, TimeUs window_us) {
  const bool want_csi = source == MeasurementSource::kCsi;
  const std::size_t nstreams =
      want_csi ? wifi::kNumCsiStreams : phy::kNumAntennas;
  const std::size_t stride =
      (nstreams + simd::kLanes - 1) / simd::kLanes * simd::kLanes;
  FrozenTrace out;
  std::vector<const wifi::CaptureRecord*> recs;
  for (const auto& rec : trace) {
    if (want_csi && !rec.has_csi) continue;
    recs.push_back(&rec);
    out.timestamps.push_back(rec.timestamp_us);
  }
  const std::size_t n = recs.size();
  std::vector<double> rows(n * stride, 0.0);
  std::vector<double> raw(n);
  std::vector<double> centered(n);
  for (std::size_t s = 0; s < nstreams; ++s) {
    for (std::size_t k = 0; k < n; ++k) {
      raw[k] = want_csi ? wifi::stream_csi(*recs[k], s)
                        : recs[k]->rssi_dbm[s];
    }
    remove_time_moving_average(std::span<const TimeUs>(out.timestamps),
                               std::span<const double>(raw), window_us,
                               centered);
    for (std::size_t k = 0; k < n; ++k) rows[k * stride + s] = centered[k];
  }
  std::vector<double> mad(stride, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t c = 0; c < stride; ++c) {
      const double v = rows[k * stride + c];
      mad[c] = mad[c] + (v < 0.0 ? -v : v);
    }
  }
  for (double& m : mad) {
    const double mean_abs = n > 0 ? m / static_cast<double>(n) : 0.0;
    m = mean_abs <= 0.0 ? 1.0 : mean_abs;
  }
  out.streams.assign(nstreams, std::vector<double>(n));
  frozen_transpose_divide(rows.data(), stride, n, mad.data(), nstreams,
                          out.streams);
  return out;
}

/// One stream of a frozen trace as a one-stream trace.
FrozenTrace frozen_single(const FrozenTrace& ft, std::size_t stream) {
  return FrozenTrace{ft.timestamps, {ft.streams[stream]}};
}

/// The frozen sync scratch: what sync_search left in DecodeWorkspace.
struct FrozenSyncWs {
  std::vector<double> corrs;
  std::vector<double> sync_corrs;
  std::vector<std::size_t> sync_filled;
  std::vector<std::size_t> sync_edges;
  std::vector<double> sync_means;
  std::size_t bin_filled = 0;
  std::vector<std::size_t> order;
};

bool frozen_fill_passes(std::size_t filled, double min_filled) {
  return static_cast<double>(filled) >= min_filled && filled > 0;
}

// The per-stream correlate_group, frozen: stream by stream, the slot
// means of the grid, then each member's correlation.
void frozen_correlate_group(const FrozenTrace& ct,
                            std::span<const double> tmpl, TimeUs origin_us,
                            TimeUs slot_us, double min_filled,
                            std::size_t first, std::size_t members,
                            std::size_t stride, std::size_t shift,
                            FrozenSyncWs& ws) {
  const std::size_t nslots = tmpl.size();
  const std::size_t nstreams = ct.num_streams();
  const std::size_t grid = (members - 1) * shift + nslots;
  const auto& edges = ws.sync_edges;
  slot_edges_into(ct.timestamps, origin_us, slot_us, grid, ws.sync_edges);
  const auto empty = [&edges](std::size_t m) {
    return edges[m + 1] == edges[m];
  };
  bool any = false;
  for (std::size_t t = 0; t < members; ++t) {
    std::size_t filled = 0;
    for (std::size_t i = 0; i < nslots; ++i) {
      if (!empty(t * shift + i)) ++filled;
    }
    ws.sync_filled[first + t * stride] = filled;
    any = any || frozen_fill_passes(filled, min_filled);
  }
  auto& means = ws.sync_means;
  means.resize(grid);
  for (std::size_t s = 0; s < nstreams; ++s) {
    if (any) {
      const double* xs = ct.streams[s].data();
      for (std::size_t m = 0; m < grid; ++m) {
        if (empty(m)) continue;
        double sum = 0.0;
        for (std::size_t p = edges[m]; p < edges[m + 1]; ++p) sum += xs[p];
        means[m] = sum / static_cast<double>(edges[m + 1] - edges[m]);
      }
    }
    for (std::size_t t = 0; t < members; ++t) {
      const std::size_t j = first + t * stride;
      const std::size_t filled = ws.sync_filled[j];
      double corr = 0.0;
      if (frozen_fill_passes(filled, min_filled)) {
        for (std::size_t i = 0; i < nslots; ++i) {
          const std::size_t m = t * shift + i;
          if (empty(m)) continue;
          corr += means[m] * tmpl[i];
        }
        corr /= static_cast<double>(filled);
      }
      ws.sync_corrs[j * nstreams + s] = corr;
    }
  }
}

double frozen_rank_streams(std::size_t g, FrozenSyncWs& ws) {
  const auto& corrs = ws.corrs;
  auto& order = ws.order;
  order.resize(corrs.size());
  for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(g),
                    order.end(), [&corrs](std::size_t a, std::size_t b) {
                      return std::abs(corrs[a]) > std::abs(corrs[b]);
                    });
  double score = 0.0;
  for (std::size_t i = 0; i < g; ++i) score += std::abs(corrs[order[i]]);
  return score / static_cast<double>(g);
}

void frozen_sync_search(const FrozenTrace& ct, std::span<const double> tmpl,
                        TimeUs slot_us, double min_filled, std::size_t g,
                        TimeUs from_us, TimeUs to_us, TimeUs step_us,
                        FrozenSyncWs& ws,
                        const std::function<void(TimeUs, double)>& visit) {
  const std::size_t nstreams = ct.num_streams();
  if (to_us < from_us) return;
  const auto ncand = static_cast<std::size_t>((to_us - from_us) / step_us) + 1;
  const std::int64_t common = std::gcd(slot_us.ticks(), step_us.ticks());
  const auto period = static_cast<std::size_t>(slot_us.ticks() / common);
  const auto shift = static_cast<std::size_t>(step_us.ticks() / common);
  const std::size_t stride =
      shift < tmpl.size() ? std::min(period, kSyncBlock) : kSyncBlock;
  for (std::size_t j0 = 0; j0 < ncand; j0 += kSyncBlock) {
    const std::size_t nb = std::min(kSyncBlock, ncand - j0);
    ws.sync_corrs.resize(nb * nstreams);
    ws.sync_filled.resize(nb);
    for (std::size_t r = 0; r < std::min(stride, nb); ++r) {
      frozen_correlate_group(
          ct, tmpl, from_us + step_us * static_cast<std::int64_t>(j0 + r),
          slot_us, min_filled, r, (nb - r + stride - 1) / stride, stride,
          shift, ws);
    }
    for (std::size_t j = 0; j < nb; ++j) {
      const auto row = ws.sync_corrs.begin() +
                       static_cast<std::ptrdiff_t>(j * nstreams);
      ws.corrs.assign(row, row + static_cast<std::ptrdiff_t>(nstreams));
      ws.bin_filled = ws.sync_filled[j];
      const double score = frozen_rank_streams(g, ws);
      visit(from_us + step_us * static_cast<std::int64_t>(j0 + j), score);
    }
  }
}

// The uplink decoder's pipeline after conditioning, frozen (observability
// hooks left out): sync, per-stream preamble variance, MRC vectorised
// over time one stream at a time, hysteresis votes.
UplinkDecodeResult frozen_uplink_decode(const UplinkDecoderConfig& cfg,
                                        const FrozenTrace& ct) {
  UplinkDecodeResult out;
  const std::vector<double> tmpl = to_bipolar(cfg.preamble);
  if (ct.num_packets() == 0 || ct.num_streams() == 0) {
    out.drop_reason = obs::DropReason::kEmptyTrace;
    return out;
  }
  const TimeUs first = ct.timestamps.front();
  TimeUs from = cfg.search_from.value_or(first);
  TimeUs to = cfg.search_to.value_or(ct.timestamps.back() -
                                     cfg.frame_duration_us());
  from = std::max(from, first - cfg.bit_duration_us);
  to = std::max(to, from);
  const TimeUs step =
      std::max(cfg.bit_duration_us / kSyncStepsPerBit, TimeUs{1});
  const std::size_t g = std::min(cfg.num_good_streams, ct.num_streams());
  const double need = kMinPreambleFill * static_cast<double>(tmpl.size());
  FrozenSyncWs ws;
  bool has_best = false;
  TimeUs best_start{0};
  double best_score = 0.0;
  std::vector<std::size_t> best_streams;
  std::vector<double> best_polarity;
  frozen_sync_search(
      ct, tmpl, cfg.bit_duration_us, need, g, from, to, step, ws,
      [&](TimeUs tau, double tau_score) {
        if (!has_best || tau_score > best_score) {
          has_best = true;
          best_start = tau;
          best_score = tau_score;
          best_streams.assign(ws.order.begin(),
                              ws.order.begin() + static_cast<long>(g));
          best_polarity.resize(g);
          for (std::size_t i = 0; i < g; ++i) {
            best_polarity[i] = ws.corrs[ws.order[i]] >= 0.0 ? 1.0 : -1.0;
          }
        }
      });
  if (!has_best || best_score <= cfg.sync_threshold) {
    out.drop_reason = (!has_best || best_score <= 0.0)
                          ? obs::DropReason::kNoPreamble
                          : obs::DropReason::kLowSnr;
    return out;
  }
  const TimeUs start = best_start;
  out.found = true;
  out.start_us = start;
  out.sync_score = best_score;
  out.streams = best_streams;
  out.polarity = best_polarity;

  const auto& ts = ct.timestamps;
  const TimeUs pre_end =
      start + cfg.bit_duration_us *
                  static_cast<std::int64_t>(cfg.preamble.size());
  out.weights.resize(out.streams.size());
  for (std::size_t i = 0; i < out.streams.size(); ++i) {
    const auto& xs = ct.streams[out.streams[i]];
    double sum = 0.0, sum2 = 0.0;
    std::size_t n = 0;
    for (std::size_t k = lower_index(ts, start);
         k < ts.size() && ts[k] < pre_end; ++k) {
      const auto bit = static_cast<std::size_t>((ts[k] - start) /
                                                cfg.bit_duration_us);
      const double r = out.polarity[i] * xs[k] - tmpl[bit];
      sum += r;
      sum2 += r * r;
      ++n;
    }
    double var = 1.0;
    if (n >= 2) {
      const double mean_r = sum / static_cast<double>(n);
      var = std::max((sum2 - static_cast<double>(n) * mean_r * mean_r) /
                         static_cast<double>(n - 1),
                     1e-6);
    }
    out.weights[i] = 1.0 / var;
  }

  const TimeUs frame_end = start + cfg.frame_duration_us();
  const std::size_t k0 = lower_index(ts, start);
  const std::size_t k1 = lower_index(ts, frame_end);
  const std::size_t nwin = k1 - k0;
  std::vector<double> y(nwin, 0.0);
  const std::vector<TimeUs> yt(ts.begin() + static_cast<std::ptrdiff_t>(k0),
                               ts.begin() + static_cast<std::ptrdiff_t>(k1));
  double wsum = 0.0;
  for (double w : out.weights) wsum += w;
  if (wsum <= 0.0) wsum = 1.0;
  using P = simd::dpack;
  const std::size_t main = nwin - nwin % simd::kLanes;
  for (std::size_t i = 0; i < out.streams.size(); ++i) {
    const double wp = out.weights[i] * out.polarity[i];
    const P wpv = P::broadcast(wp);
    const double* x = ct.streams[out.streams[i]].data() + k0;
    for (std::size_t k = 0; k < main; k += simd::kLanes) {
      P::mul_add(wpv, P::load(x + k), P::load(y.data() + k))
          .store(y.data() + k);
    }
    for (std::size_t k = main; k < nwin; ++k) y[k] = wp * x[k] + y[k];
  }
  const P wsv = P::broadcast(wsum);
  for (std::size_t k = 0; k < main; k += simd::kLanes) {
    (P::load(y.data() + k) / wsv).store(y.data() + k);
  }
  for (std::size_t k = main; k < nwin; ++k) y[k] = y[k] / wsum;
  out.packets_used = y.size();

  const double mu = mean(y);
  const double sd = stddev(y);
  const double th1 = mu + cfg.hysteresis_sigma * sd;
  const double th0 = mu - cfg.hysteresis_sigma * sd;
  const TimeUs payload_start = pre_end;
  out.payload.assign(cfg.payload_bits, 0);
  out.confidence.assign(cfg.payload_bits, 0.0);
  std::vector<int> ones(cfg.payload_bits, 0), zeros(cfg.payload_bits, 0);
  std::vector<double> slot_sum(cfg.payload_bits, 0.0);
  std::vector<int> slot_n(cfg.payload_bits, 0);
  for (std::size_t k = 0; k < y.size(); ++k) {
    if (yt[k] < payload_start) continue;
    const auto bit = static_cast<std::size_t>((yt[k] - payload_start) /
                                              cfg.bit_duration_us);
    if (bit >= cfg.payload_bits) break;
    if (y[k] > th1) ++ones[bit];
    else if (y[k] < th0) ++zeros[bit];
    slot_sum[bit] += y[k];
    ++slot_n[bit];
  }
  std::size_t payload_packets = 0;
  for (const int n : slot_n) payload_packets += static_cast<std::size_t>(n);
  if (payload_packets == 0) {
    UplinkDecodeResult dropped;
    dropped.drop_reason = obs::DropReason::kSlicerAmbiguous;
    return dropped;
  }
  for (std::size_t b = 0; b < cfg.payload_bits; ++b) {
    const int total = ones[b] + zeros[b];
    if (ones[b] != zeros[b]) {
      out.payload[b] = ones[b] > zeros[b] ? 1 : 0;
      out.confidence[b] =
          total > 0
              ? std::abs(ones[b] - zeros[b]) / static_cast<double>(total)
              : 0.0;
    } else {
      const double slot_mean =
          slot_n[b] > 0 ? slot_sum[b] / static_cast<double>(slot_n[b]) : mu;
      out.payload[b] = slot_mean > mu ? 1 : 0;
      out.confidence[b] = 0.0;
    }
  }
  return out;
}

// The coded decoder after conditioning, frozen (observability hooks left
// out): the lane-loop winsoriser, sync, the chosen start's probe, and the
// per-stream payload correlation.
CodedDecodeResult frozen_coded_decode(const CodedDecoderConfig& cfg,
                                      const FrozenTrace& ct_in) {
  CodedDecodeResult out;
  if (ct_in.num_packets() == 0 || ct_in.num_streams() == 0) {
    out.drop_reason = obs::DropReason::kEmptyTrace;
    return out;
  }
  std::vector<double> tmpl;
  for (std::uint8_t b : cfg.preamble) {
    for (std::uint8_t c : b ? cfg.codes.one : cfg.codes.zero) {
      tmpl.push_back(c ? 1.0 : -1.0);
    }
  }
  std::vector<double> code_diff;
  for (std::size_t c = 0; c < cfg.chips_per_bit(); ++c) {
    code_diff.push_back((cfg.codes.one[c] ? 1.0 : -1.0) -
                        (cfg.codes.zero[c] ? 1.0 : -1.0));
  }

  using P = simd::dpack;
  const P lo = P::broadcast(-kClipSigma);
  const P hi = P::broadcast(kClipSigma);
  double clamped = 0.0;
  std::size_t total = 0;
  FrozenTrace ct;
  ct.timestamps = ct_in.timestamps;
  ct.streams.resize(ct_in.streams.size());
  for (std::size_t s = 0; s < ct_in.streams.size(); ++s) {
    const auto& src = ct_in.streams[s];
    auto& dst = ct.streams[s];
    dst.resize(src.size());
    const std::size_t main = src.size() - src.size() % simd::kLanes;
    P cnt = P::zero();
    for (std::size_t k = 0; k < main; k += simd::kLanes) {
      const P v = P::load(src.data() + k);
      P over;
      for (std::size_t l = 0; l < simd::kLanes; ++l) {
        over.lane[l] =
            (v.lane[l] > kClipSigma || v.lane[l] < -kClipSigma) ? 1.0 : 0.0;
      }
      cnt += over;
      P::clamp(v, lo, hi).store(dst.data() + k);
    }
    clamped += cnt.hsum();
    for (std::size_t k = main; k < src.size(); ++k) {
      if (src[k] > kClipSigma || src[k] < -kClipSigma) clamped += 1.0;
      dst[k] = std::clamp(src[k], -kClipSigma, kClipSigma);
    }
    total += src.size();
  }
  out.clipped_fraction =
      total > 0 ? clamped / static_cast<double>(total) : 0.0;

  const std::size_t g = std::min(cfg.num_good_streams, ct.num_streams());
  const double need = kMinChipFill * static_cast<double>(tmpl.size());
  FrozenSyncWs ws;
  TimeUs best_start{0};
  double best_score = -1.0;
  if (cfg.known_start) {
    best_start = *cfg.known_start;
  } else {
    const TimeUs from = cfg.search_from.value_or(ct.timestamps.front());
    const TimeUs to = std::max(
        from, cfg.search_to.value_or(ct.timestamps.back() -
                                     cfg.frame_duration_us()));
    const TimeUs step =
        std::max(cfg.chip_duration_us / kSyncStepsPerChip, TimeUs{1});
    frozen_sync_search(ct, tmpl, cfg.chip_duration_us, need, g, from, to,
                       step, ws, [&](TimeUs tau, double score) {
                         if (score > best_score) {
                           best_score = score;
                           best_start = tau;
                         }
                       });
  }
  frozen_sync_search(ct, tmpl, cfg.chip_duration_us, need, g, best_start,
                     best_start, cfg.chip_duration_us, ws,
                     [&best_score](TimeUs, double score) {
                       best_score = score;
                     });
  out.found = best_score > 0.0;
  if (!out.found) {
    out.drop_reason = out.clipped_fraction > 0.05
                          ? obs::DropReason::kClipped
                          : obs::DropReason::kNoPreamble;
    return out;
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
  const std::size_t l = cfg.chips_per_bit();
  out.payload.assign(cfg.payload_bits, 0);
  out.margin.assign(cfg.payload_bits, 0.0);
  std::vector<std::size_t> edges;
  for (std::size_t b = 0; b < cfg.payload_bits; ++b) {
    const TimeUs block_start =
        best_start +
        cfg.chip_duration_us *
            static_cast<std::int64_t>((cfg.preamble.size() + b) * l);
    slot_edges_into(ct.timestamps, block_start, cfg.chip_duration_us, l,
                    edges);
    double combined = 0.0;
    for (std::size_t i = 0; i < out.streams.size(); ++i) {
      const double* xs = ct.streams[out.streams[i]].data();
      double diff = 0.0;
      for (std::size_t c = 0; c < l; ++c) {
        if (edges[c + 1] == edges[c]) continue;
        double sum = 0.0;
        for (std::size_t p = edges[c]; p < edges[c + 1]; ++p) sum += xs[p];
        diff += (sum / static_cast<double>(edges[c + 1] - edges[c])) *
                code_diff[c];
      }
      combined += out.weights[i] * out.polarity[i] * diff;
    }
    out.payload[b] = combined > 0.0 ? 1 : 0;
    out.margin[b] = std::abs(combined);
  }
  return out;
}

// ---- comparisons ----

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::uint64_t> bits_of(const std::vector<double>& vs) {
  std::vector<std::uint64_t> out;
  for (double v : vs) out.push_back(bits_of(v));
  return out;
}

/// What a sync search hands its visitor for one candidate.
struct Candidate {
  TimeUs start{0};
  std::uint64_t score = 0;
  std::vector<std::uint64_t> corrs;
  std::vector<std::size_t> top;
  std::size_t filled = 0;

  bool operator==(const Candidate&) const = default;
};

struct SyncArgs {
  std::vector<double> tmpl;
  TimeUs slot_us{0};
  double min_filled = 0.0;
  std::size_t g = 1;
  TimeUs from_us{0};
  TimeUs to_us{0};
  TimeUs step_us{1};
};

std::vector<Candidate> search(const ConditionedTrace& ct, const SyncArgs& a) {
  DecodeWorkspace ws;
  std::vector<Candidate> out;
  sync_search(ct, a.tmpl, a.slot_us, a.min_filled, a.g, a.from_us, a.to_us,
              a.step_us, ws, [&](TimeUs start, double score) {
                out.push_back(
                    {start, bits_of(score), bits_of(ws.corrs),
                     std::vector<std::size_t>(
                         ws.order.begin(),
                         ws.order.begin() + static_cast<long>(a.g)),
                     ws.bin_filled});
              });
  return out;
}

std::vector<Candidate> frozen_search(const FrozenTrace& ct,
                                     const SyncArgs& a) {
  FrozenSyncWs ws;
  std::vector<Candidate> out;
  frozen_sync_search(ct, a.tmpl, a.slot_us, a.min_filled, a.g, a.from_us,
                     a.to_us, a.step_us, ws, [&](TimeUs start, double score) {
                       out.push_back(
                           {start, bits_of(score), bits_of(ws.corrs),
                            std::vector<std::size_t>(
                                ws.order.begin(),
                                ws.order.begin() + static_cast<long>(a.g)),
                            ws.bin_filled});
                     });
  return out;
}

void expect_same_candidates(const ConditionedTrace& ct,
                            const FrozenTrace& ft, const SyncArgs& a) {
  const auto got = search(ct, a);
  const auto want = frozen_search(ft, a);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_FALSE(want.empty());
  for (std::size_t j = 0; j < want.size(); ++j) {
    EXPECT_TRUE(got[j] == want[j]) << "candidate " << j << " at "
                                   << want[j].start.ticks();
  }
}

void expect_identical(const UplinkDecodeResult& a,
                      const UplinkDecodeResult& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.start_us, b.start_us);
  EXPECT_EQ(bits_of(a.sync_score), bits_of(b.sync_score));
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.streams, b.streams);
  EXPECT_EQ(bits_of(a.polarity), bits_of(b.polarity));
  EXPECT_EQ(bits_of(a.weights), bits_of(b.weights));
  EXPECT_EQ(bits_of(a.confidence), bits_of(b.confidence));
  EXPECT_EQ(a.packets_used, b.packets_used);
  EXPECT_EQ(a.drop_reason, b.drop_reason);
}

void expect_identical(const CodedDecodeResult& a, const CodedDecodeResult& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.start_us, b.start_us);
  EXPECT_EQ(bits_of(a.sync_score), bits_of(b.sync_score));
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.streams, b.streams);
  EXPECT_EQ(bits_of(a.polarity), bits_of(b.polarity));
  EXPECT_EQ(bits_of(a.weights), bits_of(b.weights));
  EXPECT_EQ(bits_of(a.margin), bits_of(b.margin));
  EXPECT_EQ(bits_of(a.clipped_fraction), bits_of(b.clipped_fraction));
  EXPECT_EQ(a.drop_reason, b.drop_reason);
}

// ---- captures ----

constexpr TimeUs kFrameStart{300'000};
constexpr TimeUs kWindow{400'000};

/// A simulated capture of one plain frame, with CSI dropped on ~10 % of
/// the records (beacons), so CSI decodes skip records.
wifi::CaptureTrace plain_capture(TimeUs bit_us, std::size_t payload_bits,
                                 std::uint64_t seed) {
  core::UplinkSimConfig cfg;
  cfg.channel.tag_pos = {0.1, 0.0};
  cfg.channel.helper_pos = {3.1, 0.0};
  cfg.seed = seed;
  sim::RngStream rng(seed);
  auto traffic_rng = rng.fork("t");
  BitVec frame = barker13();
  const auto payload = random_bits(payload_bits, seed ^ 0xF00D);
  frame.insert(frame.end(), payload.begin(), payload.end());
  const TimeUs until = kFrameStart +
                       bit_us * static_cast<std::int64_t>(frame.size()) +
                       TimeUs{300'000};
  const auto tl = wifi::make_cbr_timeline(2'000, until, wifi::TrafficParams{},
                                          traffic_rng);
  tag::Modulator mod(frame, bit_us, kFrameStart);
  core::UplinkSim sim(cfg);
  auto trace = sim.run(tl, mod);
  auto gap_rng = rng.fork("gaps");
  for (auto& rec : trace) {
    if (gap_rng.chance(0.1)) {
      rec.has_csi = false;
      for (auto& ant : rec.csi) ant.fill(0.0);
    }
  }
  return trace;
}

/// A simulated capture of one coded frame. Every 50th record carries a
/// spike on every CSI and RSSI lane, so the winsoriser clamps samples.
wifi::CaptureTrace coded_capture(const CodedDecoderConfig& dec,
                                 std::uint64_t seed) {
  core::UplinkSimConfig cfg;
  cfg.channel.tag_pos = {0.5, 0.0};
  cfg.channel.helper_pos = {3.5, 0.0};
  cfg.seed = seed;
  sim::RngStream rng(seed);
  auto traffic_rng = rng.fork("t");
  BitVec frame = dec.preamble;
  const auto payload = random_bits(dec.payload_bits, seed ^ 0xABCD);
  frame.insert(frame.end(), payload.begin(), payload.end());
  const TimeUs until = kFrameStart + dec.frame_duration_us() + TimeUs{300'000};
  const auto tl = wifi::make_cbr_timeline(3'000, until, wifi::TrafficParams{},
                                          traffic_rng);
  tag::Modulator mod(frame, dec.codes, dec.chip_duration_us, kFrameStart);
  core::UplinkSim sim(cfg);
  auto trace = sim.run(tl, mod);
  for (std::size_t k = 0; k < trace.size(); k += 50) {
    for (auto& ant : trace[k].csi) {
      for (double& v : ant) v *= 6.0;
    }
    for (double& v : trace[k].rssi_dbm) v += 30.0;
  }
  return trace;
}

UplinkDecoderConfig plain_config(MeasurementSource source, TimeUs bit_us,
                                 std::size_t payload_bits) {
  UplinkDecoderConfig cfg;
  cfg.payload_bits = payload_bits;
  cfg.bit_duration_us = bit_us;
  cfg.movavg_window_us = kWindow;
  return source == MeasurementSource::kRssi ? rssi_decoder_config(cfg) : cfg;
}

CodedDecoderConfig coded_config(MeasurementSource source) {
  CodedDecoderConfig cfg;
  cfg.source = source;
  cfg.codes = make_orthogonal_pair(8);
  cfg.payload_bits = 12;
  cfg.chip_duration_us = TimeUs{4'000};
  cfg.movavg_window_us = kWindow;
  if (source == MeasurementSource::kRssi) cfg.num_good_streams = 1;
  return cfg;
}

// ---- the oracle ----

TEST(LayoutOracle, SyncCandidatesMatchPerStreamKernel) {
  // CSI with beacons (90 streams, 2 padding lanes), RSSI (3 streams, 1
  // padding lane) and one stream (3 padding lanes); a full search over
  // several blocks at a quarter-bit step, a coarse search whose
  // candidates share no slots, and a lone probe of the frame start.
  const TimeUs bit{10'000};
  const auto trace = plain_capture(bit, 24, 41);
  const std::vector<double> tmpl = to_bipolar(barker13());
  const double need = kMinPreambleFill * static_cast<double>(tmpl.size());
  for (const auto source :
       {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
    const ConditionedTrace ct = condition(trace, source, kWindow);
    const FrozenTrace ft = frozen_condition(trace, source, kWindow);
    ConditionedTrace one;
    copy_stream(ct, ct.num_streams() - 1, one);
    const FrozenTrace ft_one = frozen_single(ft, ft.num_streams() - 1);
    const std::size_t g = std::min<std::size_t>(10, ct.num_streams());
    const SyncArgs full{tmpl, bit, need, g, ct.timestamps.front(),
                        ct.timestamps.back(), bit / 4};
    const SyncArgs coarse{tmpl, bit, need, g, TimeUs{0}, TimeUs{900'000},
                          bit * 17};
    const SyncArgs probe{tmpl, bit, need, g, kFrameStart, kFrameStart, bit};
    for (const SyncArgs& a : {full, coarse, probe}) {
      SCOPED_TRACE(::testing::Message()
                   << "rssi " << (source == MeasurementSource::kRssi)
                   << " step " << a.step_us.ticks());
      expect_same_candidates(ct, ft, a);
      SyncArgs a1 = a;
      a1.g = 1;
      expect_same_candidates(one, ft_one, a1);
    }
  }
}

TEST(LayoutOracle, UplinkDecodeMatchesPerStreamPipeline) {
  const TimeUs bit{10'000};
  const std::size_t payload_bits = 24;
  const auto trace = plain_capture(bit, payload_bits, 43);
  DecodeWorkspace ws;
  UplinkDecodeResult got;
  for (const auto source :
       {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
    const FrozenTrace ft = frozen_condition(trace, source, kWindow);
    UplinkDecoderConfig search = plain_config(source, bit, payload_bits);
    UplinkDecoderConfig probe = search;
    probe.search_from = kFrameStart;
    probe.search_to = kFrameStart;
    for (const auto& cfg : {search, probe}) {
      SCOPED_TRACE(::testing::Message()
                   << "rssi " << (source == MeasurementSource::kRssi)
                   << " probe " << cfg.search_from.has_value());
      const UplinkDecoder dec(cfg);
      const auto want = frozen_uplink_decode(cfg, ft);
      ASSERT_TRUE(want.found);
      dec.decode_into(trace, ws, got);
      expect_identical(got, want);
      dec.decode_conditioned_into(condition(trace, source, kWindow), ws, got);
      expect_identical(got, want);
    }
    // One stream of the trace, as the random-stream baseline decodes it.
    const ConditionedTrace ct = condition(trace, source, kWindow);
    UplinkDecoderConfig single = search;
    single.num_good_streams = 1;
    const UplinkDecoder dec(single);
    ConditionedTrace one;
    for (const std::size_t s : {std::size_t{0}, ct.num_streams() - 1}) {
      copy_stream(ct, s, one);
      dec.decode_conditioned_into(one, ws, got);
      expect_identical(got, frozen_uplink_decode(single, frozen_single(ft, s)));
    }
  }
}

TEST(LayoutOracle, CodedDecodeMatchesPerStreamPipeline) {
  DecodeWorkspace ws;
  CodedDecodeResult got;
  for (const auto source :
       {MeasurementSource::kCsi, MeasurementSource::kRssi}) {
    const CodedDecoderConfig search = coded_config(source);
    const auto trace = coded_capture(search, 47);
    const FrozenTrace ft = frozen_condition(trace, source, kWindow);
    CodedDecoderConfig known = search;
    known.known_start = kFrameStart;
    for (const auto& cfg : {known, search}) {
      SCOPED_TRACE(::testing::Message()
                   << "rssi " << (source == MeasurementSource::kRssi)
                   << " known start " << cfg.known_start.has_value());
      const CodedUplinkDecoder dec(cfg);
      const auto want = frozen_coded_decode(cfg, ft);
      ASSERT_TRUE(want.found);
      ASSERT_GT(want.clipped_fraction, 0.0);
      dec.decode_into(trace, ws, got);
      expect_identical(got, want);
    }
    // One stream (3 padding lanes): its clipped fraction counts that
    // stream's samples alone.
    const ConditionedTrace ct = condition(trace, source, kWindow);
    known.num_good_streams = 1;
    const CodedUplinkDecoder dec(known);
    ConditionedTrace one;
    for (const std::size_t s : {std::size_t{0}, ct.num_streams() - 1}) {
      copy_stream(ct, s, one);
      dec.decode_conditioned_into(one, ws, got);
      const auto want = frozen_coded_decode(known, frozen_single(ft, s));
      ASSERT_GT(want.clipped_fraction, 0.0);
      expect_identical(got, want);
    }
  }
}

}  // namespace
}  // namespace wb::reader
