// Uplink with zero injected traffic: decoding a tag from ambient packets
// and from beacons alone (paper §7.4, §7.5).
//
// No cooperating traffic source exists in this scenario — the reader is a
// phone in monitor mode, and the only Wi-Fi energy comes from an office
// AP going about its business (bursty ambient traffic), or, in the
// quietest case, nothing but the AP's periodic beacons decoded via RSSI.
//
// Build & run:   ./build/examples/ambient_uplink
#include <cstdio>
#include <vector>

#include "core/uplink_sim.h"
#include "reader/streaming_decoder.h"
#include "reader/uplink_decoder.h"
#include "tag/modulator.h"
#include "util/codes.h"
#include "wifi/traffic.h"

namespace {

using namespace wb;

/// Keeps a copy of every frame the streaming decoder emits (the result it
/// hands to on_frame() is reused scratch).
struct FrameCollector final : reader::FrameSink {
  std::vector<reader::UplinkDecodeResult> frames;
  void on_frame(const reader::UplinkDecodeResult& frame) override {
    frames.push_back(frame);
  }
};

/// Decode one tag frame carried by an arbitrary ambient timeline; returns
/// bit errors (or payload size when sync fails).
std::size_t run_ambient(const wifi::PacketTimeline& timeline,
                        reader::MeasurementSource source, TimeUs bit_us,
                        const BitVec& payload, std::uint64_t seed) {
  core::UplinkSimConfig cfg;
  cfg.channel.tag_pos = {0.05, 0.0};
  cfg.channel.helper_pos = {3.05, 0.0};
  cfg.seed = seed;

  BitVec frame = barker13();
  frame.insert(frame.end(), payload.begin(), payload.end());
  const TimeUs frame_start{600'000};
  tag::Modulator mod(frame, bit_us, frame_start);

  core::UplinkSim sim(cfg);
  const auto trace = sim.run(timeline, mod);

  reader::UplinkDecoderConfig dec;
  dec.source = source;
  dec.payload_bits = payload.size();
  dec.bit_duration_us = bit_us;
  dec.num_good_streams =
      source == reader::MeasurementSource::kRssi ? 1 : 10;
  dec.search_from = frame_start - 2 * bit_us;
  dec.search_to = frame_start + 2 * bit_us;
  reader::UplinkDecoder decoder(dec);
  const auto result = decoder.decode(trace);
  if (!result.found) return payload.size();
  return hamming_distance(payload, result.payload);
}

}  // namespace

int main() {
  using namespace wb;
  const BitVec payload = random_bits(40, 77);

  std::printf("ambient-only uplink (tag at 5 cm, no injected traffic)\n\n");

  // --- Case 1: bursty ambient office traffic, CSI decoding ---
  {
    sim::RngStream rng(11);
    auto traffic_rng = rng.fork("ambient");
    wifi::BurstyParams bursty;  // ~1000 pkt/s long-run average
    bursty.burst_pps = 3000.0;
    bursty.mean_burst_ms = 60.0;
    bursty.mean_idle_ms = 120.0;
    const TimeUs bit_us{12'000};  // ~83 bps, conservative for bursts
    const TimeUs until = TimeUs{600'000} + 53 * bit_us + TimeUs{100'000};
    const auto tl =
        wifi::make_bursty_timeline(bursty, until, wifi::TrafficParams{},
                                   traffic_rng);
    const auto errors =
        run_ambient(tl, reader::MeasurementSource::kCsi, bit_us, payload, 21);
    std::printf("bursty ambient traffic (%5zu pkts): %zu/%zu bit errors %s\n",
                tl.size(), errors, payload.size(),
                errors == 0 ? "- clean decode" : "");
  }

  // --- Case 2: Poisson ambient traffic at a quiet hour, CSI ---
  {
    sim::RngStream rng(12);
    auto traffic_rng = rng.fork("quiet");
    const TimeUs bit_us{40'000};  // 25 bps: quiet network, slow and sure
    const TimeUs until = TimeUs{600'000} + 53 * bit_us + TimeUs{100'000};
    const auto tl = wifi::make_poisson_timeline(
        300.0, until, wifi::TrafficParams{}, traffic_rng);
    const auto errors =
        run_ambient(tl, reader::MeasurementSource::kCsi, bit_us, payload, 22);
    std::printf("quiet Poisson traffic  (%5zu pkts): %zu/%zu bit errors %s\n",
                tl.size(), errors, payload.size(),
                errors == 0 ? "- clean decode" : "");
  }

  // --- Case 3: beacons only, RSSI decoding ---
  {
    sim::RngStream rng(13);
    auto traffic_rng = rng.fork("beacons");
    const double beacons_per_sec = 50.0;
    const TimeUs bit_us{50'000};  // 20 bps from 2.5 beacons per bit
    const TimeUs until = TimeUs{600'000} + 53 * bit_us + TimeUs{100'000};
    const auto tl =
        wifi::make_beacon_timeline(beacons_per_sec, until, 1, traffic_rng);
    const auto errors = run_ambient(tl, reader::MeasurementSource::kRssi,
                                    bit_us, payload, 23);
    std::printf("beacons only at %2.0f/s   (%5zu pkts): %zu/%zu bit errors %s\n",
                beacons_per_sec, tl.size(), errors, payload.size(),
                errors == 0 ? "- clean decode" : "");
  }

  // --- Case 4: record-by-record streaming decode, drained by flush() ---
  // The reader consumes the capture live instead of decoding a recorded
  // trace, and the ambient traffic dies right after the frame's last bit —
  // so the final frame is only recovered by flushing when the capture ends.
  {
    sim::RngStream rng(14);
    auto traffic_rng = rng.fork("live");
    const TimeUs bit_us{12'000};
    const TimeUs frame_start{600'000};
    const TimeUs frame_end = frame_start + 53 * bit_us;
    const auto tl = wifi::make_cbr_timeline(3'000, frame_end + TimeUs{5'000},
                                            wifi::TrafficParams{},
                                            traffic_rng);

    core::UplinkSimConfig cfg;
    cfg.channel.tag_pos = {0.05, 0.0};
    cfg.channel.helper_pos = {3.05, 0.0};
    cfg.seed = 24;
    BitVec frame = barker13();
    frame.insert(frame.end(), payload.begin(), payload.end());
    tag::Modulator mod(frame, bit_us, frame_start);
    core::UplinkSim sim(cfg);
    const auto trace = sim.run(tl, mod);

    reader::StreamingDecoderConfig scfg;
    scfg.decoder.payload_bits = payload.size();
    scfg.decoder.bit_duration_us = bit_us;
    reader::StreamingUplinkDecoder dec(scfg);
    FrameCollector sink;
    for (const auto& rec : trace) dec.push(rec, sink);
    const std::size_t live = sink.frames.size();
    dec.flush(sink);
    const auto& frames = sink.frames;
    const std::size_t errors =
        frames.empty() ? payload.size()
                       : hamming_distance(payload, frames.front().payload);
    std::printf(
        "live capture          (%5zu pkts): %zu frame(s) while streaming, "
        "%zu drained by flush, %zu/%zu bit errors\n",
        trace.size(), live, frames.size() - live, errors, payload.size());
  }

  std::printf(
      "\nthe uplink needs no cooperating traffic source: whatever packets\n"
      "the network already carries (even just beacons) are its carrier.\n");
  return 0;
}
