// Reproduces Fig 18: downlink false-positive rate — how often ordinary
// Wi-Fi traffic tricks the tag into waking its microcontroller for a
// Wi-Fi Backscatter preamble that is not there.
//
// Paper setup (§8.2): tag 30 cm from the AP, constant streaming traffic
// through peak hours, preamble bits of 50 us; reported as wake-up events
// per hour over a working day. Expected: below ~30/hour at all times.
#include <cstdio>

#include "bench_util.h"
#include "core/downlink_sim.h"
#include "wifi/traffic.h"

int main(int argc, char** argv) {
  using namespace wb;
  const bool quick = bench::quick_mode(argc, argv);
  // Simulated seconds per hour-of-day point, scaled up to events/hour.
  const TimeUs window_us = (quick ? 60 : 600) * kMicrosPerSec;
  // Diurnal office load plus the experiment's constant audio stream.
  const auto pps = [](int hour) { return wifi::office_load_pps(hour) + 50.0; };

  bench::print_header(
      "Figure 18",
      "Downlink false positives per hour (tag 30 cm from a busy AP)");

  // Hours 10..18; each seeds its own traffic and detector.
  const auto per_hour = bench::run_points(argc, argv, 9, [&](std::size_t i) {
    const int hour = 10 + static_cast<int>(i);
    sim::RngStream rng(9000 + static_cast<std::uint64_t>(hour));
    auto traffic_rng = rng.fork("ambient");
    const auto ambient =
        wifi::make_ambient_mix_timeline(pps(hour), window_us, traffic_rng);

    core::DownlinkSimConfig cfg;
    cfg.ambient_distance_m = Meters{0.30};  // 30 cm from the AP
    cfg.reader_tag_distance_m = Meters{1.0};
    cfg.mcu.bit_duration_us = TimeUs{50};
    cfg.seed = 77 + static_cast<std::uint64_t>(hour);
    core::DownlinkSim sim(cfg);
    const auto report =
        sim.run(reader::DownlinkTransmission{}, ambient, window_us);
    return static_cast<double>(report.decode_entries) * 3.6e9 /
           static_cast<double>(window_us.ticks());
  });

  std::printf("%-10s  %14s  %12s\n", "hour", "ambient pkts/s",
              "false pos/hr");
  bench::print_row_divider();
  for (std::size_t i = 0; i < per_hour.size(); ++i) {
    const int hour = 10 + static_cast<int>(i);
    std::printf("%-10d  %14.0f  %12.1f\n", hour, pps(hour), per_hour[i]);
  }
  std::printf(
      "\nPaper reference: the maximum observed false-positive rate is\n"
      "below 30 events/hour; ordinary traffic rarely mimics the preamble's\n"
      "transition-interval structure.\n");
  return 0;
}
