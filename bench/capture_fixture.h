// The capture both reader micro benches decode (bench_decoder_micro,
// bench_obs_overhead): 30 pkt/bit at 3000 pkt/s, 40 payload bits, tag at
// 20 cm, frame 600 ms in; it decodes cleanly at the default threshold.
#pragma once

#include <cstdint>

#include "core/uplink_sim.h"
#include "reader/uplink_decoder.h"
#include "tag/modulator.h"
#include "util/bits.h"
#include "wifi/traffic.h"

namespace wb_bench {

inline const wb::wifi::CaptureTrace& shared_trace() {
  using namespace wb;
  static const wifi::CaptureTrace trace = [] {
    core::UplinkSimConfig cfg;
    cfg.channel.tag_pos = {0.2, 0.0};
    cfg.channel.helper_pos = {3.2, 0.0};
    cfg.seed = 99;
    const TimeUs bit_us{10'000};
    BitVec frame = barker13();
    const auto payload = random_bits(40, 5);
    frame.insert(frame.end(), payload.begin(), payload.end());
    const TimeUs until = TimeUs{600'000} +
                         bit_us * static_cast<std::int64_t>(frame.size()) +
                         TimeUs{100'000};
    sim::RngStream rng(1);
    auto traffic_rng = rng.fork("t");
    const auto tl = wifi::make_cbr_timeline(3000, until,
                                            wifi::TrafficParams{},
                                            traffic_rng);
    tag::Modulator mod(frame, bit_us, TimeUs{600'000});
    core::UplinkSim sim(cfg);
    return sim.run(tl, mod);
  }();
  return trace;
}

/// The fixture's decoder: its frame searched +-2 bits around the start.
inline wb::reader::UplinkDecoderConfig shared_decoder_config(
    double sync_threshold = 0.0) {
  wb::reader::UplinkDecoderConfig dec;
  dec.payload_bits = 40;
  dec.bit_duration_us = wb::TimeUs{10'000};
  dec.search_from = wb::TimeUs{600'000 - 20'000};
  dec.search_to = wb::TimeUs{600'000 + 20'000};
  dec.sync_threshold = sync_threshold;
  return dec;
}

}  // namespace wb_bench
