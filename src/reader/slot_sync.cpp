#include "reader/slot_sync.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace wb::reader {

void bin_window_into(const ConditionedTrace& ct, TimeUs start_us,
                     TimeUs slot_us, std::size_t nslots, DecodeWorkspace& ws) {
  WB_REQUIRE(slot_us > TimeUs{}, "slot duration must be positive");
  const auto& ts = ct.timestamps;
  std::size_t k = lower_index(ts, start_us);
  ws.bin_first = k;
  ws.bin_nslots = nslots;
  ws.bin_count.assign(nslots, 0);
  const TimeUs end = start_us + slot_us * static_cast<std::int64_t>(nslots);
  const std::size_t k_end = lower_index(ts, end);
  ws.bin_slot_of.resize(k_end - k);
  for (std::size_t j = 0; k < k_end; ++k, ++j) {
    const auto slot =
        static_cast<std::uint32_t>((ts[k] - start_us) / slot_us);
    ws.bin_slot_of[j] = slot;
    ++ws.bin_count[slot];
  }
  ws.bin_filled = 0;
  for (const std::uint32_t c : ws.bin_count) {
    if (c > 0) ++ws.bin_filled;
  }
}

void bin_stream_sums_into(const ConditionedTrace& ct, std::size_t stream,
                          DecodeWorkspace& ws) {
  WB_REQUIRE(stream < ct.num_streams(), "stream index out of range");
  WB_REQUIRE(ct.streams[stream].size() == ct.timestamps.size(),
             "conditioned stream must cover every packet");
  const auto& xs = ct.streams[stream];
  ws.bin_sums.assign(ws.bin_nslots, 0.0);
  const std::size_t k0 = ws.bin_first;
  for (std::size_t j = 0; j < ws.bin_slot_of.size(); ++j) {
    ws.bin_sums[ws.bin_slot_of[j]] += xs[k0 + j];
  }
}

double correlate_and_rank(const ConditionedTrace& ct,
                          std::span<const double> tmpl, TimeUs start_us,
                          TimeUs slot_us, double min_filled, std::size_t g,
                          DecodeWorkspace& ws) {
  const std::size_t nstreams = ct.num_streams();
  WB_REQUIRE(g > 0 && g <= nstreams, "rank size must be in [1, streams]");
  const std::size_t nslots = tmpl.size();
  bin_window_into(ct, start_us, slot_us, nslots, ws);
  const bool enough = static_cast<double>(ws.bin_filled) >= min_filled &&
                      ws.bin_filled > 0;
  auto& corrs = ws.corrs;
  auto& order = ws.order;
  corrs.resize(nstreams);
  order.resize(nstreams);
  for (std::size_t s = 0; s < nstreams; ++s) {
    if (!enough) {
      corrs[s] = 0.0;
      continue;
    }
    bin_stream_sums_into(ct, s, ws);
    double corr = 0.0;
    for (std::size_t i = 0; i < nslots; ++i) {
      if (ws.bin_count[i] == 0) continue;
      corr += (ws.bin_sums[i] / static_cast<double>(ws.bin_count[i])) *
              tmpl[i];
    }
    corrs[s] = corr / static_cast<double>(ws.bin_filled);
  }
  for (std::size_t s = 0; s < nstreams; ++s) order[s] = s;
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(g),
                    order.end(), [&corrs](std::size_t a, std::size_t b) {
                      return std::abs(corrs[a]) > std::abs(corrs[b]);
                    });
  double score = 0.0;
  for (std::size_t i = 0; i < g; ++i) score += std::abs(corrs[order[i]]);
  return score / static_cast<double>(g);
}

}  // namespace wb::reader
