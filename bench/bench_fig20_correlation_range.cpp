// Reproduces Fig 20: the correlation length (code length L) required to
// reach BER < 1e-2, as a function of tag-reader distance beyond the plain
// decoder's range.
//
// Paper setup (§10): helper 3 m from the reader; the tag encodes each bit
// as one of two orthogonal L-chip codes; the reader correlates (§3.4).
// Expected: L ~ 20 suffices around 1.6 m; L grows steeply with distance,
// reaching ~150 at 2.1 m.
//
// One bench::run_points point per (distance, placement) pair (--threads
// N); the median over placements is taken after the deterministic merge,
// so output is bit-identical at any thread count.
#include <cstdio>

#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "core/experiments.h"

int main(int argc, char** argv) {
  using namespace wb;
  const bool quick = bench::quick_mode(argc, argv);
  bench::print_header(
      "Figure 20", "Correlation length needed for BER < 1e-2 vs distance");
  bench::BenchReport report(
      argc, argv, "fig20",
      "Correlation length needed for BER < 1e-2 vs distance");

  const std::vector<std::size_t> lengths = {8,  16, 24, 32,  48,
                                            64, 96, 128, 160};
  const std::vector<double> distances_cm = {80,  100, 120, 140, 160,
                                            180, 200, 210, 220};

  // Median over placements: each physical placement has its own multipath
  // luck; the paper measured one placement per distance but a single draw
  // makes the curve jumpy.
  core::CodedGridSpec spec;
  spec.base.packets_per_chip = 2.0;
  spec.base.payload_bits = quick ? 12 : 30;
  spec.base.runs = quick ? 2 : 8;
  spec.placements = quick ? 3 : 5;
  for (double cm : distances_cm) spec.distances_m.push_back(cm / 100.0);
  auto grid = core::expand_coded_grid(spec);
  // Legacy per-point seed formula (9900 + cm + placement*131), so numbers
  // match the pre-runner serial loop byte for byte.
  for (auto& pt : grid) {
    const double cm = distances_cm[pt.index / spec.placements];
    pt.params.seed =
        9900 + static_cast<std::uint64_t>(cm) + pt.placement * 131;
  }

  const auto res = bench::run_points(
      argc, argv, grid.size(), [&grid, &lengths](std::size_t i) {
        const std::size_t l =
            core::required_correlation_length(grid[i].params, lengths);
        return l == 0 ? lengths.back() * 2 : l;
      });

  std::printf("%-14s  %s\n", "distance(cm)", "required correlation length");
  bench::print_row_divider();
  for (std::size_t d = 0; d < distances_cm.size(); ++d) {
    std::vector<std::size_t> per_placement(
        res.begin() + static_cast<std::ptrdiff_t>(d * spec.placements),
        res.begin() + static_cast<std::ptrdiff_t>((d + 1) * spec.placements));
    std::sort(per_placement.begin(), per_placement.end());
    const std::size_t median = per_placement[per_placement.size() / 2];
    const bool achievable = median <= lengths.back();
    if (achievable) {
      std::printf("%-14.0f  %zu\n", distances_cm[d], median);
    } else {
      std::printf("%-14.0f  > %zu (not achievable in sweep)\n",
                  distances_cm[d], lengths.back());
    }
    report.add_row("distance_point")
        .set("distance_cm", distances_cm[d])
        .set("median_correlation_length", static_cast<double>(median))
        .set("achievable", achievable);
  }
  std::printf(
      "\nPaper reference: ~20 bits at 1.6 m growing superlinearly to ~150\n"
      "bits at 2.1 m; correlation buys range at the cost of bit rate, with\n"
      "no extra power at the tag.\n");
  return report.finish() ? 0 : 1;
}
