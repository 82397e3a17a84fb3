// Ablation study of the uplink decoder's design choices (DESIGN.md §6):
//   * stream combining: MRC (1/sigma^2 weights) vs equal-gain vs best-1;
//   * hysteresis thresholds on vs off;
//   * number of combined streams G;
//   * moving-average window length.
//
// Each ablation reports BER at a mid-range operating point (40 cm,
// 30 pkt/bit) where the decoder has work to do. Decoder settings leave the
// captures alone, so two frame sets cover every row: the default NIC read
// by each decoder variant, and a spurious-heavy NIC for hysteresis.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/experiments.h"

int main(int argc, char** argv) {
  using namespace wb;
  bench::print_header("Ablation (uplink)",
                      "Decoder design choices at 40 cm, 30 pkt/bit");
  core::UplinkExperimentParams p;
  p.tag_reader_distance_m = Meters{0.40};
  p.packets_per_bit = 30.0;
  p.runs = bench::quick_mode(argc, argv) ? 6 : 20;
  p.seed = 4242;
  const std::size_t gs[] = {1, 3, 5, 20, 45};
  const TimeUs windows[] = {TimeUs{100'000}, TimeUs{200'000},
                            TimeUs{800'000}, TimeUs{1'600'000}};
  const double hysteresis[] = {0.0, 0.25, 0.5, 1.0};

  // Default NIC: [0] full decoder, [1..5] G, [6..9] window, [10] random.
  std::vector<core::UplinkDecode> plain(10, core::decode_of(p));
  for (std::size_t i = 0; i < 5; ++i) plain[1 + i].num_good_streams = gs[i];
  for (std::size_t i = 0; i < 4; ++i) {
    plain[6 + i].movavg_window_us = windows[i];
  }
  plain.push_back(core::decode_of(p, core::UplinkStreams::kRandomOne));
  auto spurious = p;
  spurious.nic.spurious_prob = 0.05;
  std::vector<core::UplinkDecode> bands(4, core::decode_of(spurious));
  for (std::size_t i = 0; i < 4; ++i) bands[i].hysteresis_sigma = hysteresis[i];

  const auto res = bench::run_points(argc, argv, 2, [&](std::size_t set) {
    return set == 0 ? core::measure_uplink(p, plain)
                    : core::measure_uplink(spurious, bands);
  });
  const auto ber = [&res](std::size_t set, std::size_t i) {
    return res[set][i][0].ber;
  };

  std::printf("%-44s  %s\n", "variant", "BER");
  bench::print_row_divider();
  std::printf("%-44s  %.2e\n", "full decoder (MRC, G=10, hysteresis 0.25s)",
              ber(0, 0));
  for (std::size_t i = 0; i < 5; ++i) {
    std::printf("combined streams G=%-26zu  %.2e\n", gs[i], ber(0, 1 + i));
  }
  // Hysteresis earns its keep against the NIC's spurious CSI events
  // (§3.2's stated motivation); ablate it under a spurious-heavy card.
  for (std::size_t i = 0; i < 4; ++i) {
    std::printf("hysteresis %.2f sigma (spurious-heavy NIC)%*s  %.2e\n",
                hysteresis[i], 2, "", ber(1, i));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    std::printf("moving-average window %4lld ms%*s  %.2e\n",
                static_cast<long long>(windows[i].ticks() / 1000), 13, "",
                ber(0, 6 + i));
  }
  std::printf("%-44s  %.2e\n", "random single sub-channel (Fig 11 baseline)",
              ber(0, 10));
  std::printf(
      "\nExpected: combining beats any single stream by orders of\n"
      "magnitude; a handful of good streams suffices (G of 3-10), while\n"
      "G=45 dilutes with noise-only streams; hysteresis is dominated by\n"
      "per-bit majority voting even on a spurious-heavy NIC (wide dead\n"
      "zones only discard votes) — which is why the decoder's default\n"
      "band is narrow; very long moving-average windows pass drift\n"
      "through.\n");
  return 0;
}
