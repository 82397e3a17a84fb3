// Reproduces Fig 17: downlink BER vs distance between the Wi-Fi reader and
// the tag, for packet lengths of 50/100/200 us (20/10/5 kbps).
//
// Paper setup (§8.1): 200 kbit per point across multiple transmissions at
// +16 dBm; bits measured at the tag's detector output. The measurement
// loop itself lives in core::measure_downlink_ber (shared with the CLI).
//
// Expected shape: BER grows with distance and with bit rate; at BER 1e-2
// the 20 kbps link reaches ~2.1 m and 10 kbps ~2.9 m.
//
// The 42-point grid runs through bench::run_points (--threads N);
// per-point seeds are fixed at expansion time, so output is bit-identical
// at any thread count.
#include <cstdio>

#include <string>
#include <vector>

#include "bench_util.h"
#include "core/experiments.h"

int main(int argc, char** argv) {
  using namespace wb;
  const bool quick = bench::quick_mode(argc, argv);
  bench::print_header("Figure 17",
                      "Downlink BER vs distance (reader at +16 dBm)");
  bench::BenchReport report(
      argc, argv, "fig17", "Downlink BER vs distance (reader at +16 dBm)");

  const char* rate_labels[] = {"20 kbps", "10 kbps", "5 kbps"};
  const std::vector<double> distances_cm = {25,  50,  75,  100, 125,
                                            150, 175, 200, 225, 250,
                                            275, 300, 325, 350};
  core::DownlinkGridSpec spec;
  spec.base.total_bits = quick ? 4'000 : 50'000;
  spec.slot_durations_us = {TimeUs{50}, TimeUs{100}, TimeUs{200}};
  for (double cm : distances_cm) spec.distances_m.push_back(cm / 100.0);
  auto grid = core::expand_downlink_grid(spec);
  // Legacy per-point seed formula (1234 + cm + slot_us), so numbers match
  // the pre-runner serial loop byte for byte.
  const std::size_t n_rates = spec.slot_durations_us.size();
  for (auto& pt : grid) {
    const double cm = distances_cm[pt.index / n_rates];
    pt.params.seed = 1234 + static_cast<std::uint64_t>(cm) +
                     static_cast<std::uint64_t>(pt.slot_us.ticks());
  }

  const auto res =
      bench::run_points(argc, argv, grid.size(), [&grid](std::size_t i) {
        return core::measure_downlink_ber(grid[i].params);
      });

  std::printf("%-14s", "distance(cm)");
  for (const char* label : rate_labels) std::printf("  %10s", label);
  std::printf("\n");
  bench::print_row_divider();
  for (std::size_t d = 0; d < distances_cm.size(); ++d) {
    std::printf("%-14.0f", distances_cm[d]);
    auto& row =
        report.add_row("distance_point").set("distance_cm", distances_cm[d]);
    for (std::size_t r = 0; r < n_rates; ++r) {
      const double ber = res[d * n_rates + r].ber;
      std::printf("  %10.2e", ber);
      row.set("ber_" +
                  std::to_string(static_cast<long long>(
                      spec.slot_durations_us[r].ticks())) +
                  "us",
              ber);
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper reference: at BER 1e-2, 20 kbps reaches ~2.13 m and 10 kbps\n"
      "~2.90 m; lower bit rates extend range.\n");
  return report.finish() ? 0 : 1;
}
