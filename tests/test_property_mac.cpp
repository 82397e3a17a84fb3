// Property sweeps over the DCF MAC: conservation and sanity invariants
// across station counts, frame sizes, and seeds.
#include <gtest/gtest.h>

#include "wifi/mac.h"

namespace wb::wifi {
namespace {

// GoogleTest names each case by the raw bytes of its parameter, so the
// struct must have no padding: uninitialised padding bytes would change
// the case names from run to run.
struct MacCase {
  std::size_t stations;
  std::uint64_t size_bytes;
  double rate_mbps;
  std::uint64_t seed;
};
static_assert(sizeof(MacCase) == sizeof(std::size_t) +
                                     2 * sizeof(std::uint64_t) +
                                     sizeof(double),
              "MacCase must have no padding bytes");

class MacSweep : public ::testing::TestWithParam<MacCase> {};

TEST_P(MacSweep, ConservationInvariants) {
  const auto c = GetParam();
  DcfMac mac{sim::RngStream(c.seed)};
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < c.stations; ++i) {
    ids.push_back(mac.add_station());
    mac.make_saturated(ids.back(), static_cast<std::uint32_t>(c.size_bytes),
                       c.rate_mbps);
  }
  const TimeUs horizon = kMicrosPerSec;
  mac.run_until(horizon);

  // The clock reaches the horizon; a frame that started before it may
  // finish past it, bounded by one frame cycle.
  EXPECT_GE(mac.now(), horizon);
  EXPECT_LE(mac.now(), horizon + TimeUs{30'000});
  EXPECT_GE(mac.utilisation(), 0.0);
  EXPECT_LE(mac.utilisation(), 1.0);

  // Airtime conservation: every logged frame fits inside the horizon and
  // successful frames never overlap each other.
  TimeUs prev_end{0};
  for (const auto& f : mac.log()) {
    EXPECT_GE(f.packet.start_us, TimeUs{});
    EXPECT_LE(f.packet.end_us(), horizon + TimeUs{10'000});
    if (!f.collided) {
      EXPECT_GE(f.packet.start_us, prev_end - TimeUs{1});
      prev_end = f.packet.end_us();
    }
  }

  // Accounting: delivered + dropped never exceeds enqueued for queued
  // stations; delivered counts match the log.
  std::uint64_t delivered_stats = 0;
  for (auto id : ids) delivered_stats += mac.stats(id).delivered;
  std::uint64_t delivered_log = 0;
  for (const auto& f : mac.log()) {
    if (!f.collided) ++delivered_log;
  }
  EXPECT_EQ(delivered_stats, delivered_log);

  // With any saturated station, the medium must not sit idle.
  EXPECT_GT(mac.utilisation(), 0.3);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MacSweep,
    ::testing::Values(MacCase{1, 1'500, 54.0, 1}, MacCase{2, 500, 24.0, 2},
                      MacCase{4, 1'500, 6.0, 3}, MacCase{8, 1'000, 54.0, 4},
                      MacCase{16, 200, 12.0, 5},
                      MacCase{3, 1'500, 54.0, 99}));

class MacSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MacSeedSweep, DeterministicForSeed) {
  auto run = [&](std::uint64_t seed) {
    DcfMac mac{sim::RngStream(seed)};
    const auto a = mac.add_station();
    const auto b = mac.add_station();
    mac.make_saturated(a, 1'000, 54.0);
    mac.make_saturated(b, 700, 24.0);
    mac.run_until(TimeUs{300'000});
    return std::make_pair(mac.stats(a).delivered, mac.stats(b).delivered);
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MacSeedSweep,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(MacProperty, ReservationAlwaysRespectedAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    DcfMac mac{sim::RngStream(seed)};
    const auto reader = mac.add_station();
    const auto rival = mac.add_station();
    mac.make_saturated(rival, 1'500, 54.0);
    mac.reserve(reader, TimeUs{20'000}, TimeUs{5'000});
    mac.run_until(TimeUs{80'000});
    const AirFrame* cts = nullptr;
    for (const auto& f : mac.log()) {
      if (f.packet.kind == FrameKind::kCtsToSelf && !f.collided) cts = &f;
    }
    if (cts == nullptr) continue;  // CTS collided this seed; retried out
    const TimeUs nav_start = cts->packet.end_us();
    const TimeUs nav_end = nav_start + cts->packet.nav_us;
    for (const auto& f : mac.log()) {
      if (&f == cts) continue;
      EXPECT_FALSE(f.packet.start_us >= nav_start &&
                   f.packet.start_us < nav_end)
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace wb::wifi
