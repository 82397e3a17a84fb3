// Oracle test for the sync search kernel: every candidate of a phase-grid
// search must get exactly the correlations, ranking, score and fill that
// probing it alone gives. The lone probe is the reference reader's
// (reference/reference.h), binning included; its binner is also the
// oracle for slot_edges_into, the one binner that the grid and the coded
// decoder's payload loop share.
#include "reader/slot_sync.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "reference/reference.h"
#include "sim/rng.h"
#include "trace_columns.h"
#include "util/bits.h"
#include "util/codes.h"

namespace wb::reader {
namespace {

constexpr TimeUs kSlot{5'000};

/// A bursty trace in both layouts: the reference's streams and the rows
/// sync_search reads.
struct Bursty {
  reference::StreamTrace st;
  ConditionedTrace ct;
};

/// Packets in bursts (a few ms of ~3 kHz traffic, then up to ~40 ms of
/// silence), so windows hold empty slots and some fall below the fill
/// gate. Stream 0 is all zero and stream 1 carries only +0.0 / -0.0; the
/// rest are Gaussian.
Bursty bursty_trace(std::size_t nstreams, std::uint64_t seed) {
  sim::RngStream rng(seed);
  Bursty b;
  auto& st = b.st;
  st.streams.resize(nstreams);
  TimeUs t{1'000};
  while (t < TimeUs{1'500'000}) {
    const auto burst = 2 + rng.uniform_int(60);
    for (std::uint64_t p = 0; p < burst; ++p) {
      st.timestamps.push_back(t);
      t += TimeUs{150 + static_cast<std::int64_t>(rng.uniform_int(400))};
    }
    t += TimeUs{static_cast<std::int64_t>(rng.uniform_int(40'000))};
  }
  for (std::size_t s = 0; s < nstreams; ++s) {
    for (std::size_t k = 0; k < st.num_packets(); ++k) {
      double v = 0.0;
      if (s == 1) {
        v = rng.uniform() < 0.5 ? -0.0 : 0.0;
      } else if (s > 1) {
        v = rng.normal();
      }
      st.streams[s].push_back(v);
    }
  }
  b.ct = test::from_columns(st.timestamps, st.streams);
  return b;
}

std::vector<double> barker_template() { return to_bipolar(barker13()); }

/// Runs one search and checks every candidate against a lone reference
/// probe of its start; returns how many candidates fell below the fill
/// gate.
std::size_t expect_matches_lone_probes(const Bursty& b,
                                       std::span<const double> tmpl,
                                       double min_filled, std::size_t g,
                                       TimeUs from_us, TimeUs to_us,
                                       TimeUs step_us, DecodeWorkspace& ws) {
  TimeUs want_start = from_us;
  std::size_t visited = 0;
  std::size_t gated = 0;
  sync_search(b.ct, tmpl, kSlot, min_filled, g, from_us, to_us, step_us, ws,
              [&](TimeUs start_us, double score) {
                SCOPED_TRACE(start_us.ticks());
                EXPECT_EQ(start_us, want_start);
                want_start += step_us;
                ++visited;
                const auto want = reference::probe(b.st, tmpl, start_us,
                                                   kSlot, min_filled, g);
                reference::expect_bitwise(reference::probe_of(ws, g, score),
                                          want);
                if (static_cast<double>(want.filled) < min_filled) {
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
  const auto b = bursty_trace(12, 1);
  const auto tmpl = barker_template();
  for (const std::size_t g : {1u, 3u, 10u}) {
    SCOPED_TRACE(g);
    DecodeWorkspace ws;
    const TimeUs from{40'000};
    const TimeUs step = kSlot / 4;
    const std::size_t gated = expect_matches_lone_probes(
        b, tmpl, kNeed, g, from, from + step * 299, step, ws);
    EXPECT_GT(gated, 0u);
    EXPECT_LT(gated, 300u);
    expect_scratch_within_bound(ws, b.ct.num_streams(), tmpl.size());
  }
}

TEST(SyncSearch, HalfSlotStepMatchesLoneProbes) {
  // The coded decoder's chip/2 step: two phases.
  const auto b = bursty_trace(12, 2);
  const auto tmpl = barker_template();
  for (const std::size_t g : {1u, 3u, 10u}) {
    SCOPED_TRACE(g);
    DecodeWorkspace ws;
    const TimeUs step = kSlot / 2;
    expect_matches_lone_probes(b, tmpl, kNeed, g, TimeUs{-7'000},
                               TimeUs{600'000}, step, ws);
  }
}

TEST(SyncSearch, CoprimeStepSharesNoSlotsAndMatchesLoneProbes) {
  // gcd(slot, step) = 1: every candidate sits on its own phase, so no two
  // candidates share a slot and each bins alone.
  const auto b = bursty_trace(12, 3);
  const auto tmpl = barker_template();
  const TimeUs step{1'249};
  ASSERT_EQ(std::gcd(kSlot.ticks(), step.ticks()), 1);
  for (const std::size_t g : {1u, 3u, 10u}) {
    SCOPED_TRACE(g);
    DecodeWorkspace ws;
    expect_matches_lone_probes(b, tmpl, kNeed, g, TimeUs{2'000},
                               TimeUs{2'000} + step * 199, step, ws);
    expect_scratch_within_bound(ws, b.ct.num_streams(), tmpl.size());
  }
}

TEST(SyncSearch, MultiSlotStepsMatchLoneProbes) {
  // Steps past one slot: 3/4 slot (four phases, same-phase candidates
  // three slots apart) and 20 slots (windows never overlap).
  const auto b = bursty_trace(12, 4);
  const auto tmpl = barker_template();
  for (const TimeUs step : {kSlot * 3 / 4, kSlot * 20}) {
    SCOPED_TRACE(step.ticks());
    DecodeWorkspace ws;
    expect_matches_lone_probes(b, tmpl, kNeed, 3, TimeUs{10'000},
                               TimeUs{1'400'000}, step, ws);
    expect_scratch_within_bound(ws, b.ct.num_streams(), tmpl.size());
  }
}

TEST(SyncSearch, OneCandidateIsALoneProbe) {
  const auto b = bursty_trace(12, 5);
  const auto tmpl = barker_template();
  DecodeWorkspace ws;
  for (std::int64_t start = 0; start < 400'000; start += 7'919) {
    for (const std::size_t g : {1u, 3u, 10u}) {
      expect_matches_lone_probes(b, tmpl, kNeed, g, TimeUs{start},
                                 TimeUs{start}, kSlot, ws);
    }
  }
}

TEST(SyncSearch, FillGateAndEmptyWindowsMatchLoneProbes) {
  // A gate no window can meet, no gate at all, and a search that starts
  // before the first packet and runs past the last one.
  const auto b = bursty_trace(12, 6);
  const auto tmpl = barker_template();
  DecodeWorkspace ws;
  const TimeUs step = kSlot / 4;
  EXPECT_EQ(expect_matches_lone_probes(b, tmpl, 14.0, 3, TimeUs{0},
                                       TimeUs{200'000}, step, ws),
            161u);
  expect_matches_lone_probes(b, tmpl, 0.0, 3, TimeUs{0}, TimeUs{200'000},
                             step, ws);
  expect_matches_lone_probes(b, tmpl, kNeed, 10, TimeUs{-100'000},
                             TimeUs{-40'000}, step, ws);
  expect_matches_lone_probes(b, tmpl, kNeed, 10, TimeUs{1'450'000},
                             TimeUs{1'700'000}, step, ws);
}

TEST(SyncSearch, ZeroStreamsCorrelateToPositiveZero) {
  // The all-zero stream and the +-0.0 stream: each slot chain starts from
  // +0.0 as a lone probe's does, so both correlate to exactly +0.0.
  const auto b = bursty_trace(12, 7);
  const auto tmpl = barker_template();
  DecodeWorkspace ws;
  std::size_t seen = 0;
  sync_search(b.ct, tmpl, kSlot, kNeed, 10, TimeUs{0}, TimeUs{300'000},
              kSlot / 4, ws, [&](TimeUs, double) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(ws.corrs[0]), 0u);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(ws.corrs[1]), 0u);
                ++seen;
              });
  EXPECT_EQ(seen, 241u);
  expect_matches_lone_probes(b, tmpl, kNeed, 10, TimeUs{0},
                             TimeUs{300'000}, kSlot / 4, ws);
}

TEST(SyncSearch, InvertedRangeVisitsNothing) {
  const auto b = bursty_trace(12, 8);
  const auto tmpl = barker_template();
  DecodeWorkspace ws;
  expect_matches_lone_probes(b, tmpl, kNeed, 3, TimeUs{50'000},
                             TimeUs{49'999}, kSlot / 4, ws);
}

TEST(SlotEdges, MeansMatchFrozenBinnerBitForBit) {
  // Per slot: the same packet count, and a mean (packet-order sum from
  // 0.0, divided once by the count) with the same bits as the reference
  // binner's. Windows start before the first packet, inside bursts and
  // gaps, and run past the last packet; one warm edge vector serves every
  // window, as in the coded decoder's payload loop.
  std::vector<std::size_t> edges;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto b = bursty_trace(12, seed);
    for (const TimeUs slot : {kSlot, TimeUs{1'249}, kSlot * 20}) {
      for (const std::size_t nslots : {1u, 13u, 80u}) {
        for (std::int64_t origin = -60'000; origin < 1'600'000;
             origin += 37'337) {
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " slot " << slot.ticks()
                       << " nslots " << nslots << " origin " << origin);
          const auto want = reference::bin(b.st, TimeUs{origin}, slot, nslots);
          slot_edges_into(b.ct.timestamps, TimeUs{origin}, slot, nslots,
                          edges);
          ASSERT_EQ(edges.size(), nslots + 1);
          for (std::size_t c = 0; c < nslots; ++c) {
            ASSERT_EQ(edges[c + 1] - edges[c], want.count[c]) << "slot " << c;
          }
          for (std::size_t s = 0; s < b.ct.num_streams(); ++s) {
            const auto xs = test::column(b.ct, s);
            for (std::size_t c = 0; c < nslots; ++c) {
              if (want.count[c] == 0) continue;
              double sum = 0.0;
              for (std::size_t p = edges[c]; p < edges[c + 1]; ++p) {
                sum += xs[p];
              }
              const double mean =
                  sum / static_cast<double>(edges[c + 1] - edges[c]);
              EXPECT_EQ(std::bit_cast<std::uint64_t>(mean),
                        std::bit_cast<std::uint64_t>(want.means[s][c]))
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
