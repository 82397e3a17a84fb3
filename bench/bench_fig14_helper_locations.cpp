// Reproduces Fig 14 (on the Fig 13 testbed): probability of receiving a
// correct packet on the uplink for helper locations 2-5 — line-of-sight
// spots at 3-6 m and a non-line-of-sight spot in the adjacent room.
//
// Paper setup (§7.3): tag and reader 5 cm apart at location 1; the tag
// sends 20 packets at 100 bps per location. Expected: delivery is high at
// every location, including through the wall — the uplink depends on the
// tag-reader distance, not on where the helper stands.
#include <cstdio>

#include "bench_util.h"
#include "core/experiments.h"
#include "phy/geometry.h"

int main(int argc, char** argv) {
  using namespace wb;
  const std::size_t runs = bench::quick_mode(argc, argv) ? 6 : 20;
  bench::print_header(
      "Figure 14", "Uplink packet delivery probability vs helper location");

  const auto testbed = phy::Testbed::paper_fig13();
  const auto pdr = bench::run_points(
      argc, argv, testbed.helper_locations.size(), [&](std::size_t loc) {
        core::UplinkExperimentParams p;
        p.helper_pos = testbed.helper_locations[loc];
        p.reader_pos = testbed.reader;
        p.tag_pos = testbed.tag;
        p.plan = &testbed.plan;
        p.helper_pps = 3000.0;
        p.packets_per_bit = 30.0;  // 100 bps at 3000 pkt/s
        p.payload_bits = 24;       // short sensor packets, 20 of them
        p.runs = runs;
        p.seed = 500 + loc;
        return static_cast<double>(
                   core::measure_uplink_ber(p).frames_delivered) /
               static_cast<double>(runs);
      });

  std::printf("%-10s %-12s %-8s  %s\n", "location", "distance(m)", "LOS",
              "P(correct packet)");
  bench::print_row_divider();
  for (std::size_t loc = 0; loc < pdr.size(); ++loc) {
    const auto helper = testbed.helper_locations[loc];
    const Meters d = phy::distance(helper, testbed.tag);
    const bool nlos =
        testbed.plan.wall_loss_db(helper, testbed.tag) > Db{};
    std::printf("%-10zu %-12.1f %-8s  %.2f\n", loc + 2, d.value(),
                nlos ? "no" : "yes", pdr[loc]);
  }
  std::printf(
      "\nPaper reference: delivery probability is high across all helper\n"
      "locations, including location 5 in a different room.\n");
  return 0;
}
