#include "reader/slot_sync.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"
#include "util/simd.h"

namespace wb::reader {

void slot_edges_into(const std::vector<TimeUs>& ts, TimeUs origin_us,
                     TimeUs slot_us, std::size_t nslots,
                     std::vector<std::size_t>& edges) {
  WB_REQUIRE(slot_us > TimeUs{}, "slot duration must be positive");
  edges.resize(nslots + 1);
  std::size_t k = lower_index(ts, origin_us);
  for (std::size_t m = 0; m <= nslots; ++m) {
    const TimeUs edge = origin_us + slot_us * static_cast<std::int64_t>(m);
    while (k < ts.size() && ts[k] < edge) ++k;
    edges[m] = k;
  }
}

namespace {

/// A candidate correlates only when enough of its slots hold a packet.
bool fill_passes(std::size_t filled, double min_filled) {
  return static_cast<double>(filled) >= min_filled && filled > 0;
}

/// The lane kernel of correlate_group, over packs of simd::kLanes streams
/// (DESIGN.md §10). Each lane replays one stream's scalar chains: a grid
/// slot's sum is the packet-order chain from 0.0, divided once by the
/// slot's count, and a member's correlation is the slot-order chain
/// corr + mean * tmpl[i] over its non-empty slots, divided once by its
/// filled count (+0.0 when it fails the fill gate). Only the real lanes
/// of a member's correlations reach its row of ws.sync_corrs.
WB_SIMD_MULTIVERSION
void correlate_lanes(const ConditionedTrace& ct, std::span<const double> tmpl,
                     double min_filled, std::size_t first,
                     std::size_t members, std::size_t stride,
                     std::size_t shift, bool any, DecodeWorkspace& ws) {
  using P = simd::dpack;
  constexpr std::size_t L = simd::kLanes;
  const std::size_t nslots = tmpl.size();
  const std::size_t nstreams = ct.num_streams();
  const std::size_t lanes = ct.stride();
  const std::size_t grid = (members - 1) * shift + nslots;
  const std::size_t* edges = ws.sync_edges.data();
  double* means = ws.sync_means.data();
  double* corr = ws.sync_lane_corrs.data();
  if (any) {
    for (std::size_t m = 0; m < grid; ++m) {
      if (edges[m + 1] == edges[m]) continue;
      const P count =
          P::broadcast(static_cast<double>(edges[m + 1] - edges[m]));
      for (std::size_t g = 0; g < lanes; g += L) {
        P sum = P::zero();
        for (std::size_t p = edges[m]; p < edges[m + 1]; ++p) {
          sum += P::load(ct.row(p) + g);
        }
        (sum / count).store(means + m * lanes + g);
      }
    }
  }
  for (std::size_t t = 0; t < members; ++t) {
    const std::size_t j = first + t * stride;
    const std::size_t filled = ws.sync_filled[j];
    for (std::size_t g = 0; g < lanes; g += L) P::zero().store(corr + g);
    if (fill_passes(filled, min_filled)) {
      for (std::size_t i = 0; i < nslots; ++i) {
        const std::size_t m = t * shift + i;
        if (edges[m + 1] == edges[m]) continue;
        const P w = P::broadcast(tmpl[i]);
        const double* row = means + m * lanes;
        for (std::size_t g = 0; g < lanes; g += L) {
          P::mul_add(P::load(row + g), w, P::load(corr + g)).store(corr + g);
        }
      }
      const P f = P::broadcast(static_cast<double>(filled));
      for (std::size_t g = 0; g < lanes; g += L) {
        (P::load(corr + g) / f).store(corr + g);
      }
    }
    std::copy(corr, corr + nstreams, ws.sync_corrs.data() + j * nstreams);
  }
}

/// Correlates the block candidates first, first + stride, ... (`members`
/// of them), which share one slot grid from `origin_us`: member t's window
/// is grid slots [t*shift, t*shift + tmpl.size()). Writes each member's
/// fill into ws.sync_filled and its per-stream correlations into its row
/// of ws.sync_corrs.
void correlate_group(const ConditionedTrace& ct, std::span<const double> tmpl,
                     TimeUs origin_us, TimeUs slot_us, double min_filled,
                     std::size_t first, std::size_t members,
                     std::size_t stride, std::size_t shift,
                     DecodeWorkspace& ws) {
  const std::size_t nslots = tmpl.size();
  const std::size_t grid = (members - 1) * shift + nslots;

  // Grid slot m holds packets [edges[m], edges[m + 1]): the packets a
  // lone probe's window puts in that slot, in the same order.
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
    any = any || fill_passes(filled, min_filled);
  }
  ws.sync_means.resize(grid * ct.stride());
  correlate_lanes(ct, tmpl, min_filled, first, members, stride, shift, any,
                  ws);
}

/// Ranks the streams by |ws.corrs| into ws.order; returns the mean |corr|
/// of the top g.
double rank_streams(std::size_t g, DecodeWorkspace& ws) {
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

}  // namespace

void sync_search(const ConditionedTrace& ct, std::span<const double> tmpl,
                 TimeUs slot_us, double min_filled, std::size_t g,
                 TimeUs from_us, TimeUs to_us, TimeUs step_us,
                 DecodeWorkspace& ws, SyncVisitor on_candidate) {
  const std::size_t nstreams = ct.num_streams();
  WB_REQUIRE(g > 0 && g <= nstreams, "rank size must be in [1, streams]");
  WB_REQUIRE(slot_us > TimeUs{}, "slot duration must be positive");
  WB_REQUIRE(step_us > TimeUs{}, "candidate step must be positive");
  WB_REQUIRE(ct.rows.size() == ct.num_packets() * ct.stride(),
             "conditioned rows must cover every packet");
  if (to_us < from_us) return;
  const auto ncand = static_cast<std::size_t>((to_us - from_us) / step_us) + 1;
  ws.sync_lane_corrs.resize(ct.stride());

  // Candidates j and j + period start `shift` whole slots apart, so their
  // slot boundaries coincide: the starts fall into `period` phases, and
  // same-phase candidates share a grid. They share slots only while
  // their windows overlap; otherwise each candidate bins alone.
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
      correlate_group(ct, tmpl,
                      from_us + step_us * static_cast<std::int64_t>(j0 + r),
                      slot_us, min_filled, r, (nb - r + stride - 1) / stride,
                      stride, shift, ws);
    }
    for (std::size_t j = 0; j < nb; ++j) {
      const auto row = ws.sync_corrs.begin() +
                       static_cast<std::ptrdiff_t>(j * nstreams);
      ws.corrs.assign(row, row + static_cast<std::ptrdiff_t>(nstreams));
      ws.bin_filled = ws.sync_filled[j];
      const double score = rank_streams(g, ws);
      on_candidate(from_us + step_us * static_cast<std::int64_t>(j0 + j),
                   score);
    }
  }
}

}  // namespace wb::reader
