// Oracle test for the sync search kernel: every candidate of a phase-grid
// search must get exactly the correlations, ranking, score and fill that
// probing it alone with the per-start kernel gives. The per-start kernel
// is frozen below, binning included, as it stood before the grid. The
// frozen binner is also the oracle for slot_edges_into, the one binner
// that the grid and the coded decoder's payload loop share.
#include "reader/slot_sync.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "sim/rng.h"
#include "trace_columns.h"
#include "util/bits.h"
#include "util/codes.h"

namespace wb::reader {
namespace {

// ---- the frozen per-start probe ----

struct FrozenBins {
  std::vector<std::uint32_t> slot_of;
  std::vector<std::uint32_t> count;
  std::vector<double> sums;
  std::size_t first = 0;
  std::size_t nslots = 0;
  std::size_t filled = 0;
};

void frozen_bin_window(const ConditionedTrace& ct, TimeUs start_us,
                       TimeUs slot_us, std::size_t nslots, FrozenBins& b) {
  const auto& ts = ct.timestamps;
  std::size_t k = lower_index(ts, start_us);
  b.first = k;
  b.nslots = nslots;
  b.count.assign(nslots, 0);
  const TimeUs end = start_us + slot_us * static_cast<std::int64_t>(nslots);
  const std::size_t k_end = lower_index(ts, end);
  b.slot_of.resize(k_end - k);
  for (std::size_t j = 0; k < k_end; ++k, ++j) {
    const auto slot =
        static_cast<std::uint32_t>((ts[k] - start_us) / slot_us);
    b.slot_of[j] = slot;
    ++b.count[slot];
  }
  b.filled = 0;
  for (const std::uint32_t c : b.count) {
    if (c > 0) ++b.filled;
  }
}

void frozen_bin_stream_sums(const ConditionedTrace& ct, std::size_t stream,
                            FrozenBins& b) {
  b.sums.assign(b.nslots, 0.0);
  for (std::size_t j = 0; j < b.slot_of.size(); ++j) {
    b.sums[b.slot_of[j]] += ct.at(b.first + j, stream);
  }
}

double frozen_correlate_and_rank(const ConditionedTrace& ct,
                                 std::span<const double> tmpl,
                                 TimeUs start_us, TimeUs slot_us,
                                 double min_filled, std::size_t g,
                                 DecodeWorkspace& ws) {
  const std::size_t nstreams = ct.num_streams();
  const std::size_t nslots = tmpl.size();
  FrozenBins b;
  frozen_bin_window(ct, start_us, slot_us, nslots, b);
  ws.bin_filled = b.filled;
  const bool enough =
      static_cast<double>(b.filled) >= min_filled && b.filled > 0;
  auto& corrs = ws.corrs;
  auto& order = ws.order;
  corrs.resize(nstreams);
  order.resize(nstreams);
  for (std::size_t s = 0; s < nstreams; ++s) {
    if (!enough) {
      corrs[s] = 0.0;
      continue;
    }
    frozen_bin_stream_sums(ct, s, b);
    double corr = 0.0;
    for (std::size_t i = 0; i < nslots; ++i) {
      if (b.count[i] == 0) continue;
      corr += (b.sums[i] / static_cast<double>(b.count[i])) * tmpl[i];
    }
    corrs[s] = corr / static_cast<double>(b.filled);
  }
  for (std::size_t s = 0; s < nstreams; ++s) order[s] = s;
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(g),
                    order.end(), [&corrs](std::size_t a, std::size_t b2) {
                      return std::abs(corrs[a]) > std::abs(corrs[b2]);
                    });
  double score = 0.0;
  for (std::size_t i = 0; i < g; ++i) score += std::abs(corrs[order[i]]);
  return score / static_cast<double>(g);
}

// ---- fixtures ----

constexpr TimeUs kSlot{5'000};

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Packets in bursts (a few ms of ~3 kHz traffic, then up to ~40 ms of
/// silence), so windows hold empty slots and some fall below the fill
/// gate. Stream 0 is all zero and stream 1 carries only +0.0 / -0.0; the
/// rest are Gaussian.
ConditionedTrace bursty_trace(std::size_t nstreams, std::uint64_t seed) {
  sim::RngStream rng(seed);
  std::vector<TimeUs> ts;
  std::vector<std::vector<double>> streams(nstreams);
  TimeUs t{1'000};
  while (t < TimeUs{1'500'000}) {
    const auto burst = 2 + rng.uniform_int(60);
    for (std::uint64_t p = 0; p < burst; ++p) {
      ts.push_back(t);
      t += TimeUs{150 + static_cast<std::int64_t>(rng.uniform_int(400))};
    }
    t += TimeUs{static_cast<std::int64_t>(rng.uniform_int(40'000))};
  }
  for (std::size_t s = 0; s < nstreams; ++s) {
    for (std::size_t k = 0; k < ts.size(); ++k) {
      double v = 0.0;
      if (s == 1) {
        v = rng.uniform() < 0.5 ? -0.0 : 0.0;
      } else if (s > 1) {
        v = rng.normal();
      }
      streams[s].push_back(v);
    }
  }
  return test::from_columns(std::move(ts), streams);
}

std::vector<double> barker_template() { return to_bipolar(barker13()); }

/// Runs one search and checks every candidate against a lone frozen probe
/// of its start; returns how many candidates fell below the fill gate.
std::size_t expect_matches_lone_probes(const ConditionedTrace& ct,
                                       std::span<const double> tmpl,
                                       double min_filled, std::size_t g,
                                       TimeUs from_us, TimeUs to_us,
                                       TimeUs step_us, DecodeWorkspace& ws) {
  DecodeWorkspace ref;
  TimeUs want_start = from_us;
  std::size_t visited = 0;
  std::size_t gated = 0;
  sync_search(ct, tmpl, kSlot, min_filled, g, from_us, to_us, step_us, ws,
              [&](TimeUs start_us, double score) {
                SCOPED_TRACE(start_us.ticks());
                EXPECT_EQ(start_us, want_start);
                want_start += step_us;
                ++visited;
                const double want = frozen_correlate_and_rank(
                    ct, tmpl, start_us, kSlot, min_filled, g, ref);
                EXPECT_EQ(bits_of(score), bits_of(want));
                ASSERT_EQ(ws.corrs.size(), ref.corrs.size());
                for (std::size_t s = 0; s < ref.corrs.size(); ++s) {
                  EXPECT_EQ(bits_of(ws.corrs[s]), bits_of(ref.corrs[s]))
                      << "stream " << s;
                }
                for (std::size_t i = 0; i < g; ++i) {
                  EXPECT_EQ(ws.order[i], ref.order[i]) << "rank " << i;
                }
                EXPECT_EQ(ws.bin_filled, ref.bin_filled);
                if (static_cast<double>(ref.bin_filled) < min_filled) {
                  ++gated;
                }
              });
  const auto want_visits =
      to_us < from_us
          ? std::size_t{0}
          : static_cast<std::size_t>((to_us - from_us) / step_us) + 1;
  EXPECT_EQ(visited, want_visits);
  return gated;
}

/// The scratch bound documented at kSyncBlock in slot_sync.h.
void expect_scratch_within_bound(const DecodeWorkspace& ws,
                                 std::size_t nstreams, std::size_t nslots) {
  EXPECT_LE(ws.sync_corrs.capacity(), kSyncBlock * nstreams);
  EXPECT_LE(ws.sync_filled.capacity(), kSyncBlock);
  EXPECT_LE(ws.sync_means.capacity(), kSyncBlock * nslots);
  EXPECT_LE(ws.sync_edges.capacity(), kSyncBlock * nslots + 1);
}

constexpr double kNeed = 0.6 * 13;  // the plain decoder's fill gate

// ---- cases ----

TEST(SyncSearch, QuarterSlotStepMatchesLoneProbesOverManyBlocks) {
  // The plain decoder's bit/4 step: four phases, and 300 candidates span
  // five blocks.
  const auto ct = bursty_trace(12, 1);
  const auto tmpl = barker_template();
  for (const std::size_t g : {1u, 3u, 10u}) {
    SCOPED_TRACE(g);
    DecodeWorkspace ws;
    const TimeUs from{40'000};
    const TimeUs step = kSlot / 4;
    const std::size_t gated = expect_matches_lone_probes(
        ct, tmpl, kNeed, g, from, from + step * 299, step, ws);
    EXPECT_GT(gated, 0u);
    EXPECT_LT(gated, 300u);
    expect_scratch_within_bound(ws, ct.num_streams(), tmpl.size());
  }
}

TEST(SyncSearch, HalfSlotStepMatchesLoneProbes) {
  // The coded decoder's chip/2 step: two phases.
  const auto ct = bursty_trace(12, 2);
  const auto tmpl = barker_template();
  for (const std::size_t g : {1u, 3u, 10u}) {
    SCOPED_TRACE(g);
    DecodeWorkspace ws;
    const TimeUs step = kSlot / 2;
    expect_matches_lone_probes(ct, tmpl, kNeed, g, TimeUs{-7'000},
                               TimeUs{600'000}, step, ws);
  }
}

TEST(SyncSearch, CoprimeStepSharesNoSlotsAndMatchesLoneProbes) {
  // gcd(slot, step) = 1: every candidate sits on its own phase, so no two
  // candidates share a slot and each bins alone.
  const auto ct = bursty_trace(12, 3);
  const auto tmpl = barker_template();
  const TimeUs step{1'249};
  ASSERT_EQ(std::gcd(kSlot.ticks(), step.ticks()), 1);
  for (const std::size_t g : {1u, 3u, 10u}) {
    SCOPED_TRACE(g);
    DecodeWorkspace ws;
    expect_matches_lone_probes(ct, tmpl, kNeed, g, TimeUs{2'000},
                               TimeUs{2'000} + step * 199, step, ws);
    expect_scratch_within_bound(ws, ct.num_streams(), tmpl.size());
  }
}

TEST(SyncSearch, MultiSlotStepsMatchLoneProbes) {
  // Steps past one slot: 3/4 slot (four phases, same-phase candidates
  // three slots apart) and 20 slots (windows never overlap).
  const auto ct = bursty_trace(12, 4);
  const auto tmpl = barker_template();
  for (const TimeUs step : {kSlot * 3 / 4, kSlot * 20}) {
    SCOPED_TRACE(step.ticks());
    DecodeWorkspace ws;
    expect_matches_lone_probes(ct, tmpl, kNeed, 3, TimeUs{10'000},
                               TimeUs{1'400'000}, step, ws);
    expect_scratch_within_bound(ws, ct.num_streams(), tmpl.size());
  }
}

TEST(SyncSearch, OneCandidateIsALoneProbe) {
  const auto ct = bursty_trace(12, 5);
  const auto tmpl = barker_template();
  DecodeWorkspace ws;
  for (std::int64_t start = 0; start < 400'000; start += 7'919) {
    for (const std::size_t g : {1u, 3u, 10u}) {
      expect_matches_lone_probes(ct, tmpl, kNeed, g, TimeUs{start},
                                 TimeUs{start}, kSlot, ws);
    }
  }
}

TEST(SyncSearch, FillGateAndEmptyWindowsMatchLoneProbes) {
  // A gate no window can meet, no gate at all, and a search that starts
  // before the first packet and runs past the last one.
  const auto ct = bursty_trace(12, 6);
  const auto tmpl = barker_template();
  DecodeWorkspace ws;
  const TimeUs step = kSlot / 4;
  EXPECT_EQ(expect_matches_lone_probes(ct, tmpl, 14.0, 3, TimeUs{0},
                                       TimeUs{200'000}, step, ws),
            161u);
  expect_matches_lone_probes(ct, tmpl, 0.0, 3, TimeUs{0}, TimeUs{200'000},
                             step, ws);
  expect_matches_lone_probes(ct, tmpl, kNeed, 10, TimeUs{-100'000},
                             TimeUs{-40'000}, step, ws);
  expect_matches_lone_probes(ct, tmpl, kNeed, 10, TimeUs{1'450'000},
                             TimeUs{1'700'000}, step, ws);
}

TEST(SyncSearch, ZeroStreamsCorrelateToPositiveZero) {
  // The all-zero stream and the +-0.0 stream: each slot chain starts from
  // +0.0 as a lone probe's does, so both correlate to exactly +0.0.
  const auto ct = bursty_trace(12, 7);
  const auto tmpl = barker_template();
  DecodeWorkspace ws;
  std::size_t seen = 0;
  sync_search(ct, tmpl, kSlot, kNeed, 10, TimeUs{0}, TimeUs{300'000},
              kSlot / 4, ws, [&](TimeUs, double) {
                EXPECT_EQ(bits_of(ws.corrs[0]), bits_of(0.0));
                EXPECT_EQ(bits_of(ws.corrs[1]), bits_of(0.0));
                ++seen;
              });
  EXPECT_EQ(seen, 241u);
  expect_matches_lone_probes(ct, tmpl, kNeed, 10, TimeUs{0},
                             TimeUs{300'000}, kSlot / 4, ws);
}

TEST(SyncSearch, InvertedRangeVisitsNothing) {
  const auto ct = bursty_trace(12, 8);
  const auto tmpl = barker_template();
  DecodeWorkspace ws;
  expect_matches_lone_probes(ct, tmpl, kNeed, 3, TimeUs{50'000},
                             TimeUs{49'999}, kSlot / 4, ws);
}

TEST(SlotEdges, MeansMatchFrozenBinnerBitForBit) {
  // Per slot: the same packet count, and a mean (packet-order sum from
  // 0.0, divided once by the count) with the same bits as the frozen
  // binner's sums[c] / count[c]. Windows start before the first packet,
  // inside bursts and gaps, and run past the last packet; one warm edge
  // vector serves every window, as in the coded decoder's payload loop.
  std::vector<std::size_t> edges;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto ct = bursty_trace(12, seed);
    for (const TimeUs slot : {kSlot, TimeUs{1'249}, kSlot * 20}) {
      for (const std::size_t nslots : {1u, 13u, 80u}) {
        for (std::int64_t origin = -60'000; origin < 1'600'000;
             origin += 37'337) {
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " slot " << slot.ticks()
                       << " nslots " << nslots << " origin " << origin);
          FrozenBins b;
          frozen_bin_window(ct, TimeUs{origin}, slot, nslots, b);
          slot_edges_into(ct.timestamps, TimeUs{origin}, slot, nslots,
                          edges);
          ASSERT_EQ(edges.size(), nslots + 1);
          for (std::size_t c = 0; c < nslots; ++c) {
            ASSERT_EQ(edges[c + 1] - edges[c], b.count[c]) << "slot " << c;
          }
          for (std::size_t s = 0; s < ct.num_streams(); ++s) {
            frozen_bin_stream_sums(ct, s, b);
            const auto xs = test::column(ct, s);
            for (std::size_t c = 0; c < nslots; ++c) {
              if (b.count[c] == 0) continue;
              double sum = 0.0;
              for (std::size_t p = edges[c]; p < edges[c + 1]; ++p) {
                sum += xs[p];
              }
              const double mean =
                  sum / static_cast<double>(edges[c + 1] - edges[c]);
              const double want =
                  b.sums[c] / static_cast<double>(b.count[c]);
              EXPECT_EQ(bits_of(mean), bits_of(want))
                  << "stream " << s << " slot " << c;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace wb::reader
