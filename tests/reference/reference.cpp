#include "reference/reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <optional>
#include <utility>

#include "core/uplink_sim.h"
#include "tag/modulator.h"
#include "util/check.h"
#include "util/codes.h"
#include "util/dsp.h"
#include "wifi/traffic.h"

namespace wb::reference {
namespace {

/// True when the ranges [a, a + an) and [b, b + bn) share an element
/// (std::less gives a total pointer order across allocations).
bool spans_overlap(const double* a, std::size_t an, const double* b,
                   std::size_t bn) {
  if (an == 0 || bn == 0) return false;
  const std::less<const double*> lt;
  return lt(a, b + bn) && lt(b, a + an);
}

/// First packet stamped at or after t.
std::size_t first_at(const std::vector<TimeUs>& ts, TimeUs t) {
  return static_cast<std::size_t>(
      std::lower_bound(ts.begin(), ts.end(), t) - ts.begin());
}

std::vector<std::uint64_t> bits(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out[i] = std::bit_cast<std::uint64_t>(xs[i]);
  }
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

void center(std::span<const TimeUs> ts, std::span<const double> xs,
            TimeUs window_us, std::span<double> out) {
  WB_REQUIRE(ts.size() == xs.size(),
             "one measurement per timestamp is required");
  WB_REQUIRE(out.size() == xs.size(), "output must cover every sample");
  WB_REQUIRE(!spans_overlap(xs.data(), xs.size(), out.data(), out.size()),
             "out must not alias xs: the sliding window re-reads samples "
             "behind the cursor");
  WB_REQUIRE(window_us > TimeUs{}, "moving-average window must be positive");
  WB_REQUIRE(std::is_sorted(ts.begin(), ts.end()),
             "capture timestamps must be non-decreasing");
  const TimeUs half = window_us / 2;
  std::size_t head = 0;  // first index inside [t_k - half, t_k + half]
  std::size_t tail = 0;  // one past the last index inside
  double sum = 0.0;
  for (std::size_t k = 0; k < xs.size(); ++k) {
    while (tail < xs.size() && ts[tail] <= ts[k] + half) {
      sum += xs[tail];
      ++tail;
    }
    while (ts[head] < ts[k] - half) {
      sum -= xs[head];
      ++head;
    }
    const double mean = sum / static_cast<double>(tail - head);
    out[k] = xs[k] - mean;
  }
}

void normalize_mad(std::span<const double> x, std::span<double> out) {
  WB_REQUIRE(out.size() == x.size(), "output must cover every sample");
  WB_REQUIRE(out.data() == x.data() ||
                 !spans_overlap(x.data(), x.size(), out.data(), out.size()),
             "out must fully alias x (in-place) or not overlap at all");
  double mad = 0.0;
  for (double v : x) mad += std::abs(v);
  if (x.empty()) return;
  mad /= static_cast<double>(x.size());
  if (mad <= 0.0) {
    std::copy(x.begin(), x.end(), out.begin());
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] / mad;
}

void condition(const wifi::CaptureTrace& trace,
               reader::MeasurementSource source, TimeUs window_us,
               ConditionScratch& scratch, StreamTrace& out) {
  const bool want_csi = source == reader::MeasurementSource::kCsi;
  const std::size_t num_streams =
      want_csi ? wifi::kNumCsiStreams : phy::kNumAntennas;
  std::size_t n = 0;
  for (const auto& rec : trace) n += want_csi && !rec.has_csi ? 0 : 1;
  out.timestamps.resize(n);
  scratch.raw.resize(num_streams);
  for (auto& xs : scratch.raw) xs.resize(n);
  std::size_t k = 0;
  for (const auto& rec : trace) {
    if (want_csi && !rec.has_csi) continue;
    out.timestamps[k] = rec.timestamp_us;
    if (want_csi) {
      std::size_t s = 0;
      for (std::size_t a = 0; a < phy::kNumAntennas; ++a) {
        for (std::size_t c = 0; c < phy::kNumSubchannels; ++c) {
          scratch.raw[s++][k] = rec.csi[a][c];
        }
      }
    } else {
      for (std::size_t s = 0; s < num_streams; ++s) {
        scratch.raw[s][k] = rec.rssi_dbm[s];
      }
    }
    ++k;
  }
  out.streams.resize(num_streams);
  scratch.centered.resize(n);
  for (std::size_t s = 0; s < num_streams; ++s) {
    center(out.timestamps, scratch.raw[s], window_us, scratch.centered);
    out.streams[s].resize(n);
    normalize_mad(scratch.centered, out.streams[s]);
  }
}

Window bin(const StreamTrace& st, TimeUs start_us, TimeUs slot_us,
           std::size_t nslots) {
  const auto& ts = st.timestamps;
  const std::size_t lo = first_at(ts, start_us);
  const std::size_t hi =
      first_at(ts, start_us + slot_us * static_cast<std::int64_t>(nslots));
  Window w;
  w.count.assign(nslots, 0);
  w.means.assign(st.num_streams(), std::vector<double>(nslots, 0.0));
  std::vector<std::size_t> slot_of(hi - lo);
  for (std::size_t k = lo; k < hi; ++k) {
    slot_of[k - lo] = static_cast<std::size_t>((ts[k] - start_us) / slot_us);
    ++w.count[slot_of[k - lo]];
  }
  for (std::size_t s = 0; s < st.num_streams(); ++s) {
    auto& means = w.means[s];
    for (std::size_t k = lo; k < hi; ++k) {
      means[slot_of[k - lo]] += st.streams[s][k];
    }
    for (std::size_t m = 0; m < nslots; ++m) {
      if (w.count[m] > 0) means[m] /= static_cast<double>(w.count[m]);
    }
  }
  for (const std::size_t c : w.count) w.filled += c > 0 ? 1 : 0;
  return w;
}

Probe probe(const StreamTrace& st, std::span<const double> tmpl,
            TimeUs start_us, TimeUs slot_us, double min_filled,
            std::size_t g) {
  const Window w = bin(st, start_us, slot_us, tmpl.size());
  Probe p;
  p.filled = w.filled;
  p.corrs.assign(st.num_streams(), 0.0);
  if (static_cast<double>(w.filled) >= min_filled && w.filled > 0) {
    for (std::size_t s = 0; s < st.num_streams(); ++s) {
      double corr = 0.0;
      for (std::size_t i = 0; i < tmpl.size(); ++i) {
        if (w.count[i] == 0) continue;
        corr += w.means[s][i] * tmpl[i];
      }
      p.corrs[s] = corr / static_cast<double>(w.filled);
    }
  }
  std::vector<std::size_t> order(st.num_streams());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto& corrs = p.corrs;
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(g),
                    order.end(), [&corrs](std::size_t a, std::size_t b) {
                      return std::abs(corrs[a]) > std::abs(corrs[b]);
                    });
  p.top.assign(order.begin(), order.begin() + static_cast<long>(g));
  double score = 0.0;
  for (const std::size_t s : p.top) score += std::abs(corrs[s]);
  p.score = score / static_cast<double>(g);
  return p;
}

void sync_search(const StreamTrace& st, std::span<const double> tmpl,
                 TimeUs slot_us, double min_filled, std::size_t g,
                 TimeUs from_us, TimeUs to_us, TimeUs step_us,
                 const std::function<void(TimeUs, const Probe&)>& visit) {
  for (TimeUs start = from_us; start <= to_us; start += step_us) {
    visit(start, probe(st, tmpl, start, slot_us, min_filled, g));
  }
}

Probe probe_of(const reader::DecodeWorkspace& ws, std::size_t g,
               double score) {
  Probe p;
  p.score = score;
  p.corrs = ws.corrs;
  p.top.assign(ws.order.begin(), ws.order.begin() + static_cast<long>(g));
  p.filled = ws.bin_filled;
  return p;
}

std::vector<double> combine(const reader::UplinkDecoderConfig& cfg,
                            const StreamTrace& st,
                            const reader::UplinkDecodeResult& sync) {
  double wsum = 0.0;
  for (const double w : sync.weights) wsum += w;
  if (wsum <= 0.0) wsum = 1.0;
  const auto& ts = st.timestamps;
  std::vector<double> y;
  for (std::size_t k = first_at(ts, sync.start_us);
       k < ts.size() && ts[k] < sync.start_us + cfg.frame_duration_us();
       ++k) {
    double acc = 0.0;
    for (std::size_t i = 0; i < sync.streams.size(); ++i) {
      acc = sync.weights[i] * sync.polarity[i] *
                st.streams[sync.streams[i]][k] +
            acc;
    }
    y.push_back(acc / wsum);
  }
  return y;
}

reader::UplinkDecodeResult uplink_decode(const reader::UplinkDecoderConfig& cfg,
                                         const StreamTrace& st) {
  reader::UplinkDecodeResult out;
  if (st.num_packets() == 0 || st.num_streams() == 0) {
    out.drop_reason = obs::DropReason::kEmptyTrace;
    return out;
  }
  const auto& ts = st.timestamps;
  const TimeUs bit = cfg.bit_duration_us;
  const std::vector<double> tmpl = to_bipolar(cfg.preamble);

  // Candidates: the configured window, by default the whole trace less one
  // frame, starting no earlier than one bit before the first packet and
  // ending no earlier than it starts. The first of equal peaks wins.
  const TimeUs from =
      std::max(cfg.search_from.value_or(ts.front()), ts.front() - bit);
  const TimeUs to = std::max(
      cfg.search_to.value_or(ts.back() - cfg.frame_duration_us()), from);
  const std::size_t g = std::min(cfg.num_good_streams, st.num_streams());
  std::optional<std::pair<TimeUs, Probe>> best;
  sync_search(st, tmpl, bit,
              reader::kMinPreambleFill * static_cast<double>(tmpl.size()), g,
              from, to, std::max(bit / reader::kSyncStepsPerBit, TimeUs{1}),
              [&best](TimeUs start, const Probe& p) {
                if (!best || p.score > best->second.score) {
                  best.emplace(start, p);
                }
              });
  if (!best || best->second.score <= cfg.sync_threshold) {
    out.drop_reason = !best || best->second.score <= 0.0
                          ? obs::DropReason::kNoPreamble
                          : obs::DropReason::kLowSnr;
    return out;
  }
  const TimeUs start = best->first;
  const Probe& sync = best->second;
  out.found = true;
  out.start_us = start;
  out.sync_score = sync.score;
  out.streams = sync.top;
  for (const std::size_t s : sync.top) {
    out.polarity.push_back(sync.corrs[s] >= 0.0 ? 1.0 : -1.0);
  }

  // MRC weight 1/sigma^2 per stream: the variance of its residual against
  // the known preamble, floored at 1e-6 (1.0 with fewer than two packets).
  const TimeUs payload_start =
      start + bit * static_cast<std::int64_t>(cfg.preamble.size());
  for (std::size_t i = 0; i < out.streams.size(); ++i) {
    const auto& xs = st.streams[out.streams[i]];
    double sum = 0.0, sum2 = 0.0;
    std::size_t n = 0;
    for (std::size_t k = first_at(ts, start);
         k < ts.size() && ts[k] < payload_start; ++k) {
      const double r =
          out.polarity[i] * xs[k] -
          tmpl[static_cast<std::size_t>((ts[k] - start) / bit)];
      sum += r;
      sum2 += r * r;
      ++n;
    }
    double var = 1.0;
    if (n >= 2) {
      const double mean = sum / static_cast<double>(n);
      var = std::max((sum2 - static_cast<double>(n) * mean * mean) /
                         static_cast<double>(n - 1),
                     1e-6);
    }
    out.weights.push_back(1.0 / var);
  }

  const std::vector<double> y = combine(cfg, st, out);
  const std::vector<TimeUs> yt(
      ts.begin() + static_cast<std::ptrdiff_t>(first_at(ts, start)),
      ts.begin() + static_cast<std::ptrdiff_t>(first_at(ts, start) +
                                               y.size()));
  out.packets_used = y.size();

  // Hysteresis at mu +- h*sigma, then a vote per payload bit.
  const double mu = mean(y);
  const double sd = stddev(y);
  const double th1 = mu + cfg.hysteresis_sigma * sd;
  const double th0 = mu - cfg.hysteresis_sigma * sd;
  std::vector<int> ones(cfg.payload_bits, 0), zeros(cfg.payload_bits, 0);
  std::vector<int> slot_n(cfg.payload_bits, 0);
  std::vector<double> slot_sum(cfg.payload_bits, 0.0);
  std::size_t payload_packets = 0;
  for (std::size_t k = 0; k < y.size(); ++k) {
    if (yt[k] < payload_start) continue;
    const auto b = static_cast<std::size_t>((yt[k] - payload_start) / bit);
    if (b >= cfg.payload_bits) break;
    if (y[k] > th1) ++ones[b];
    else if (y[k] < th0) ++zeros[b];
    slot_sum[b] += y[k];
    ++slot_n[b];
    ++payload_packets;
  }
  if (payload_packets == 0) {
    reader::UplinkDecodeResult dropped;
    dropped.drop_reason = obs::DropReason::kSlicerAmbiguous;
    return dropped;
  }
  out.payload.assign(cfg.payload_bits, 0);
  out.confidence.assign(cfg.payload_bits, 0.0);
  for (std::size_t b = 0; b < cfg.payload_bits; ++b) {
    if (ones[b] != zeros[b]) {
      out.payload[b] = ones[b] > zeros[b] ? 1 : 0;
      out.confidence[b] = std::abs(ones[b] - zeros[b]) /
                          static_cast<double>(ones[b] + zeros[b]);
    } else {
      // A tie (or every packet inside the band): the slot mean against mu.
      const double slot_mean =
          slot_n[b] > 0 ? slot_sum[b] / static_cast<double>(slot_n[b]) : mu;
      out.payload[b] = slot_mean > mu ? 1 : 0;
    }
  }
  return out;
}

reader::CodedDecodeResult coded_decode(const reader::CodedDecoderConfig& cfg,
                                       const StreamTrace& st) {
  reader::CodedDecodeResult out;
  if (st.num_packets() == 0 || st.num_streams() == 0) {
    out.drop_reason = obs::DropReason::kEmptyTrace;
    return out;
  }
  std::vector<double> tmpl;
  for (const std::uint8_t b : cfg.preamble) {
    for (const std::uint8_t c : b ? cfg.codes.one : cfg.codes.zero) {
      tmpl.push_back(c ? 1.0 : -1.0);
    }
  }
  const std::size_t l = cfg.chips_per_bit();
  std::vector<double> code_diff;
  for (std::size_t c = 0; c < l; ++c) {
    code_diff.push_back((cfg.codes.one[c] ? 1.0 : -1.0) -
                        (cfg.codes.zero[c] ? 1.0 : -1.0));
  }

  // Winsorise every stream to +-kClipSigma, counting the clamped samples.
  StreamTrace ct = st;
  std::size_t clamped = 0;
  for (auto& xs : ct.streams) {
    for (double& x : xs) {
      if (x > reader::kClipSigma || x < -reader::kClipSigma) ++clamped;
      x = std::clamp(x, -reader::kClipSigma, reader::kClipSigma);
    }
  }
  out.clipped_fraction =
      static_cast<double>(clamped) /
      static_cast<double>(ct.num_packets() * ct.num_streams());

  const TimeUs chip = cfg.chip_duration_us;
  const std::size_t g = std::min(cfg.num_good_streams, ct.num_streams());
  const double need = reader::kMinChipFill * static_cast<double>(tmpl.size());
  TimeUs best_start = cfg.known_start.value_or(TimeUs{0});
  if (!cfg.known_start) {
    const TimeUs from = cfg.search_from.value_or(ct.timestamps.front());
    const TimeUs to = std::max(
        from, cfg.search_to.value_or(ct.timestamps.back() -
                                     cfg.frame_duration_us()));
    double best_score = -1.0;
    sync_search(ct, tmpl, chip, need, g, from, to,
                std::max(chip / reader::kSyncStepsPerChip, TimeUs{1}),
                [&](TimeUs start, const Probe& p) {
                  if (p.score > best_score) {
                    best_score = p.score;
                    best_start = start;
                  }
                });
  }
  const Probe sync = probe(ct, tmpl, best_start, chip, need, g);
  if (!(sync.score > 0.0)) {
    // Over 5 % of the samples clamped: the correlator fought interference.
    out.drop_reason = out.clipped_fraction > 0.05
                          ? obs::DropReason::kClipped
                          : obs::DropReason::kNoPreamble;
    return out;
  }
  out.found = true;
  out.start_us = best_start;
  out.sync_score = sync.score;
  out.streams = sync.top;
  for (const std::size_t s : sync.top) {
    out.polarity.push_back(sync.corrs[s] >= 0.0 ? 1.0 : -1.0);
    out.weights.push_back(std::abs(sync.corrs[s]));
  }

  // Each payload bit: every chosen stream's chip means against the code
  // difference, combined with its weight and polarity.
  for (std::size_t b = 0; b < cfg.payload_bits; ++b) {
    const Window w = bin(
        ct,
        best_start +
            chip * static_cast<std::int64_t>((cfg.preamble.size() + b) * l),
        chip, l);
    double combined = 0.0;
    for (std::size_t i = 0; i < out.streams.size(); ++i) {
      double diff = 0.0;
      for (std::size_t c = 0; c < l; ++c) {
        if (w.count[c] == 0) continue;
        diff += w.means[out.streams[i]][c] * code_diff[c];
      }
      combined += out.weights[i] * out.polarity[i] * diff;
    }
    out.payload.push_back(combined > 0.0 ? 1 : 0);
    out.margin.push_back(std::abs(combined));
  }
  return out;
}

std::vector<reader::UplinkDecodeResult> stream_frames(
    const reader::StreamingDecoderConfig& cfg,
    const wifi::CaptureTrace& trace) {
  reader::UplinkDecoderConfig dec = cfg.decoder;
  dec.sync_threshold = cfg.sync_threshold;
  const TimeUs frame = dec.frame_duration_us();
  wifi::CaptureTrace buffer;
  TimeUs consumed{0};  // frames may only start after this
  TimeUs next_scan{0};
  ConditionScratch scratch;
  StreamTrace ct;
  std::vector<reader::UplinkDecodeResult> frames;

  // Decodes the whole buffer for a frame starting in [consumed, to].
  const auto scan = [&](TimeUs to) {
    dec.search_from = consumed;
    dec.search_to = to;
    condition(buffer, dec.source, dec.movavg_window_us, scratch, ct);
    auto result = uplink_decode(dec, ct);
    if (!result.found) return false;
    consumed = result.start_us + frame;
    frames.push_back(std::move(result));
    return true;
  };
  // Drops the records older than history_us behind the consumed point.
  const auto trim = [&] {
    const TimeUs keep_from =
        consumed > cfg.history_us ? consumed - cfg.history_us : TimeUs{};
    std::erase_if(buffer, [keep_from](const wifi::CaptureRecord& r) {
      return r.timestamp_us < keep_from;
    });
  };

  for (const auto& rec : trace) {
    buffer.push_back(rec);
    const TimeUs now = rec.timestamp_us;
    if (now < next_scan || now - consumed < frame) continue;
    next_scan = now + frame / reader::kScansPerFrame;
    if (scan(now - frame)) {
      next_scan = now;  // a second frame may already be waiting
    } else {
      consumed = now - frame;  // the scanned span is clean
    }
    trim();
  }
  if (!buffer.empty()) {
    const TimeUs last_start = buffer.back().timestamp_us - frame;
    while (last_start >= consumed && scan(last_start)) {
    }
  }
  return frames;
}

// ---- comparers ----

namespace {

/// Reports the first element whose bits differ, and how many do.
void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  const auto g = bits(got);
  const auto w = bits(want);
  std::size_t diffs = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (g[i] == w[i]) continue;
    if (diffs++ == 0) first = i;
  }
  EXPECT_EQ(diffs, 0u) << what << ": first at " << first << ", got "
                       << std::hexfloat << (diffs ? got[first] : 0.0)
                       << " want " << (diffs ? want[first] : 0.0);
}

}  // namespace

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want) {
  expect_same_bits(got, want, "element");
}

void expect_bitwise(const reader::ConditionedTrace& got,
                    const StreamTrace& want) {
  ASSERT_EQ(got.timestamps, want.timestamps);
  ASSERT_EQ(got.num_streams(), want.num_streams());
  ASSERT_EQ(got.rows.size(), got.num_packets() * got.stride());
  std::vector<double> column(got.num_packets());
  for (std::size_t s = 0; s < want.num_streams(); ++s) {
    SCOPED_TRACE(::testing::Message() << "stream " << s);
    for (std::size_t k = 0; k < column.size(); ++k) column[k] = got.at(k, s);
    expect_same_bits(column, want.streams[s], "packet");
  }
  // Padding lanes hold +0.0.
  std::vector<double> padding;
  for (std::size_t k = 0; k < got.num_packets(); ++k) {
    for (std::size_t c = got.num_streams(); c < got.stride(); ++c) {
      padding.push_back(got.at(k, c));
    }
  }
  expect_same_bits(padding, std::vector<double>(padding.size(), 0.0),
                   "padding lane");
}

void expect_bitwise(const Probe& got, const Probe& want) {
  EXPECT_EQ(bits(got.score), bits(want.score));
  expect_same_bits(got.corrs, want.corrs, "stream corr");
  EXPECT_EQ(got.top, want.top);
  EXPECT_EQ(got.filled, want.filled);
}

void expect_bitwise(const reader::UplinkDecodeResult& got,
                    const reader::UplinkDecodeResult& want) {
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.start_us, want.start_us);
  EXPECT_EQ(bits(got.sync_score), bits(want.sync_score));
  EXPECT_EQ(got.payload, want.payload);
  EXPECT_EQ(got.streams, want.streams);
  expect_same_bits(got.polarity, want.polarity, "polarity");
  expect_same_bits(got.weights, want.weights, "weight");
  expect_same_bits(got.confidence, want.confidence, "confidence");
  EXPECT_EQ(got.packets_used, want.packets_used);
  EXPECT_EQ(got.drop_reason, want.drop_reason);
}

void expect_bitwise(const reader::CodedDecodeResult& got,
                    const reader::CodedDecodeResult& want) {
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.start_us, want.start_us);
  EXPECT_EQ(bits(got.sync_score), bits(want.sync_score));
  EXPECT_EQ(got.payload, want.payload);
  EXPECT_EQ(got.streams, want.streams);
  expect_same_bits(got.polarity, want.polarity, "polarity");
  expect_same_bits(got.weights, want.weights, "weight");
  expect_same_bits(got.margin, want.margin, "margin");
  EXPECT_EQ(bits(got.clipped_fraction), bits(want.clipped_fraction));
  EXPECT_EQ(got.drop_reason, want.drop_reason);
}

wifi::CaptureTrace make_trace(const std::vector<TimeUs>& frame_starts,
                              const std::vector<BitVec>& payloads,
                              TimeUs bit_us, TimeUs until,
                              std::uint64_t seed) {
  core::UplinkSimConfig cfg;
  cfg.channel.tag_pos = {0.08, 0.0};
  cfg.channel.helper_pos = {3.08, 0.0};
  cfg.seed = seed;
  sim::RngStream rng(seed);
  auto traffic_rng = rng.fork("t");
  const auto tl = wifi::make_cbr_timeline(3'000, until,
                                          wifi::TrafficParams{},
                                          traffic_rng);
  std::vector<tag::Modulator> mods;
  for (std::size_t i = 0; i < frame_starts.size(); ++i) {
    BitVec frame = barker13();
    frame.insert(frame.end(), payloads[i].begin(), payloads[i].end());
    mods.emplace_back(frame, bit_us, frame_starts[i]);
  }
  // At most one frame is on air at a time.
  core::UplinkSim sim(cfg);
  wifi::CaptureTrace trace;
  for (const auto& pkt : tl) {
    bool state = false;
    for (const auto& m : mods) state = state || m.state_at(pkt.start_us);
    const auto h = sim.channel().response(state, pkt.start_us);
    trace.push_back(
        sim.nic().measure(h, pkt.start_us, pkt.source, pkt.kind));
  }
  return trace;
}

}  // namespace wb::reference
