// Reproduces Fig 12: achievable uplink bit rate vs the helper's packet
// transmission rate.
//
// Paper setup (§7.2): tag 5 cm from the reader, helper 3 m away; the tag
// tries 100/200/500/1000 bps and the achievable rate is the largest with
// BER below 1e-2. Expected: ~100 bps at 500 pkt/s, ~1 kbps at ~3000 pkt/s
// (rate scales like helper_rate / packets-per-bit).
//
// One bench::run_points point per helper rate (--threads N); per-point
// seeds are fixed up front, so output is bit-identical at any thread count.
#include <cstdio>

#include <vector>

#include "bench_util.h"
#include "core/experiments.h"

int main(int argc, char** argv) {
  using namespace wb;
  const std::size_t runs = bench::quick_mode(argc, argv) ? 2 : 8;
  bench::print_header("Figure 12",
                      "Achievable uplink bit rate vs helper transmission rate");
  bench::BenchReport report(
      argc, argv, "fig12",
      "Achievable uplink bit rate vs helper transmission rate");

  const std::vector<double> helper_rates = {240,  500,  750,  1000,
                                            1500, 2000, 2500, 3070};
  // One task per helper rate; parameters (and the legacy seed formula)
  // fixed before execution.
  std::vector<core::UplinkExperimentParams> grid;
  for (double pps : helper_rates) {
    core::UplinkExperimentParams p;
    p.tag_reader_distance_m = Meters{0.05};
    p.helper_pps = pps;
    p.runs = runs;
    p.payload_bits = 48;
    p.seed = 2100 + static_cast<std::uint64_t>(pps);
    grid.push_back(p);
  }

  const auto res = bench::run_points(
      argc, argv, grid.size(),
      [&grid](std::size_t i) { return core::achievable_bit_rate(grid[i]); });

  std::printf("%-16s  %20s\n", "helper (pkt/s)", "achievable rate (bps)");
  bench::print_row_divider();
  for (std::size_t i = 0; i < helper_rates.size(); ++i) {
    std::printf("%-16.0f  %20.0f\n", helper_rates[i], res[i]);
    report.add_row("operating_point")
        .set("helper_pps", helper_rates[i])
        .set("achievable_bps", res[i]);
  }
  std::printf(
      "\nPaper reference: ~100 bps at 500 pkt/s rising to ~1 kbps at\n"
      "~3070 pkt/s — the bit rate tracks the helper's packet rate.\n");
  return report.finish() ? 0 : 1;
}
