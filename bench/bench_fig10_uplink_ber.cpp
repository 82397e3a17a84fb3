// Reproduces Fig 10(a)/(b): uplink bit error rate vs tag-reader distance,
// decoding with CSI and with RSSI, for 30/6/3 helper packets per bit.
//
// Paper setup (§7.1): helper 3 m from the tag, 90-bit messages (13-bit
// Barker preamble + 77 payload bits), 20 runs per point, BER floored at
// 5e-4 when no errors occur over the 1540 payload bits.
//
// Expected shape: BER grows with distance; more packets per bit helps;
// CSI reaches ~65 cm at BER 1e-2 with 30 pkt/bit while RSSI dies ~30 cm.
//
// The Intel 5300 tool reports CSI and RSSI for every packet, so each of
// the 33 (distance, packets-per-bit) captures is simulated once and
// decoded both ways. The points run through bench::run_points (--threads
// N, default hardware concurrency); every point's parameters and seed are
// fixed before it runs, so the table, --json-out and --forensics-out are
// bit-identical at any thread count.
#include <cstdio>

#include "bench_util.h"
#include "core/experiments.h"

int main(int argc, char** argv) {
  using namespace wb;
  const std::size_t runs = bench::quick_mode(argc, argv) ? 4 : 20;
  bench::print_header(
      "Figure 10", "Uplink BER vs distance (helper at 3 m, 90-bit frames)");
  bench::BenchReport report(
      argc, argv, "fig10",
      "Uplink BER vs distance (helper at 3 m, 90-bit frames)");

  const std::vector<double> distances_cm = {5,  10, 15, 20, 25, 30,
                                            40, 50, 60, 65, 70};
  core::UplinkGridSpec spec;
  spec.base.runs = runs;
  for (double cm : distances_cm) spec.distances_m.push_back(cm / 100.0);
  spec.packets_per_bit = {30.0, 6.0, 3.0};
  auto grid = core::expand_uplink_grid(spec);
  // Legacy per-point seed formula (42 + cm*100 + pkts_per_bit), computed
  // from the exact cm literals the serial loop used, so this bench's
  // numbers match the pre-runner output byte for byte.
  const std::size_t n_pkts = spec.packets_per_bit.size();
  for (auto& pt : grid) {
    const double cm = distances_cm[pt.index / n_pkts];
    pt.params.seed = 42 + static_cast<std::uint64_t>(
                              cm * 100 + pt.packets_per_bit);
  }

  const auto res = bench::run_points(argc, argv, grid.size(),
                                     [&grid](std::size_t i) {
    const auto& p = grid[i].params;
    core::UplinkDecode rssi = core::decode_of(p);
    rssi.source = reader::MeasurementSource::kRssi;
    const core::UplinkDecode decodes[] = {core::decode_of(p), rssi};
    return core::measure_uplink(p, decodes);
  });

  // One table per source; res[point][source] holds both decodes of the
  // point's captures (points are distance-major, then packets-per-bit).
  const char* sources[] = {"csi", "rssi"};
  for (std::size_t s = 0; s < 2; ++s) {
    std::printf("\n(%s)\n", s == 0 ? "a: CSI decoding" : "b: RSSI decoding");
    std::printf("%-14s", "distance(cm)");
    for (double m : spec.packets_per_bit) std::printf("  %6.0fp/bit", m);
    std::printf("\n");
    bench::print_row_divider();
    for (std::size_t d = 0; d < distances_cm.size(); ++d) {
      std::printf("%-14.0f", distances_cm[d]);
      auto& row = report.add_row("ber_point")
                      .set("source", sources[s])
                      .set("distance_cm", distances_cm[d]);
      for (std::size_t k = 0; k < n_pkts; ++k) {
        const auto& meas = res[d * n_pkts + k][s][0];
        std::printf("  %10.2e", meas.ber);
        row.set("ber_" + std::to_string(static_cast<int>(
                             spec.packets_per_bit[k])) + "pkt",
                meas.ber);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nPaper reference: CSI decodes below BER 1e-2 out to ~65 cm with\n"
      "30 pkt/bit; RSSI only to ~30 cm; fewer packets per bit is worse.\n");
  return report.finish() ? 0 : 1;
}
