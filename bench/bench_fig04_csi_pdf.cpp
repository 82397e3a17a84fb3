// Reproduces Fig 4: probability density of *normalised* channel values for
// each of the 30 Wi-Fi sub-channels, with the tag adjacent to the reader.
//
// Paper observations (§3.2): for ~30% of sub-channels the density is
// bimodal (two Gaussians at +-1 — the two reflection states); the noise
// variance differs visibly across sub-channels; the rest of the
// sub-channels see no usable backscatter signal (multipath fades).
#include <cstdio>

#include "bench_util.h"
#include "core/uplink_sim.h"
#include "reader/conditioning.h"
#include "tag/modulator.h"
#include "util/stats.h"
#include "wifi/traffic.h"

int main(int argc, char** argv) {
  using namespace wb;
  const std::size_t packets =
      bench::quick_mode(argc, argv) ? 6'000 : 42'000;
  bench::print_header(
      "Figure 4", "PDF of normalised CSI per sub-channel (tag adjacent)");

  core::UplinkSimConfig cfg;
  cfg.channel.reader_pos = {0.0, 0.0};
  cfg.channel.tag_pos = {0.05, 0.0};
  cfg.channel.helper_pos = {3.05, 0.0};
  cfg.seed = 7;

  const double pps = 3000.0;
  const TimeUs bit_us{10'000};
  const TimeUs until =
      TimeUs{static_cast<std::int64_t>(
          static_cast<double>(packets) / pps * 1e6)} +
      TimeUs{1};

  sim::RngStream rng(cfg.seed);
  auto traffic_rng = rng.fork("traffic");
  const auto timeline =
      wifi::make_cbr_timeline(pps, until, wifi::TrafficParams{}, traffic_rng);
  BitVec alternating;
  for (std::size_t i = 0;
       bit_us * static_cast<std::int64_t>(i) < until; ++i) {
    alternating.push_back(static_cast<std::uint8_t>(i % 2));
  }
  tag::Modulator mod(alternating, bit_us, TimeUs{});
  core::UplinkSim sim(cfg);
  const auto trace = sim.run(timeline, mod);
  const auto ct =
      reader::condition(trace, reader::MeasurementSource::kCsi, TimeUs{400'000});

  // Histogram the normalised values of antenna 0's 30 sub-channels.
  std::printf("%-12s %-9s %-8s %s\n", "sub-channel", "modes", "stddev",
              "density over [-3,3] (normalised CSI)");
  bench::print_row_divider();
  std::size_t bimodal = 0;
  for (std::size_t s = 0; s < phy::kNumSubchannels; ++s) {
    Histogram h(-3.0, 3.0, 48);
    RunningStats stats;
    for (std::size_t k = 0; k < ct.num_packets(); ++k) {
      const double v = ct.at(k, s);
      h.push(v);
      stats.push(v);
    }
    const std::size_t modes = h.count_modes(0.35);
    if (modes >= 2) ++bimodal;
    std::printf("%-12zu %-9zu %-8.2f ", s, modes, stats.stddev());
    // Sparkline of the density.
    double peak = 0.0;
    for (std::size_t b = 0; b < h.bins(); ++b) {
      peak = std::max(peak, h.density(b));
    }
    static const char* glyphs = " .:-=+*#%@";
    for (std::size_t b = 0; b < h.bins(); ++b) {
      const double f = peak > 0 ? h.density(b) / peak : 0.0;
      std::printf("%c", glyphs[std::min<std::size_t>(
                            9, static_cast<std::size_t>(f * 10.0))]);
    }
    std::printf("\n");
  }
  std::printf("\nbimodal sub-channels: %zu / %zu (%.0f%%)\n", bimodal,
              phy::kNumSubchannels,
              100.0 * static_cast<double>(bimodal) /
                  static_cast<double>(phy::kNumSubchannels));
  std::printf(
      "\nPaper reference: ~30%% of sub-channels show two Gaussians centred\n"
      "at +-1; noise variance differs across sub-channels; the rest see a\n"
      "very weak backscatter effect due to multipath.\n");
  return 0;
}
