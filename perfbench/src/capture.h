// Capture generation for the benchmark's inputs: one tag frame over CBR
// helper traffic, simulated either through core::UplinkSim::run (the
// product path) or one layer call at a time under spans (traced runs).
// Both produce the same records.
#pragma once

#include <cstdint>
#include <optional>

#include "bench.h"
#include "core/uplink_sim.h"
#include "util/bits.h"
#include "util/codes.h"
#include "util/units.h"
#include "wifi/capture.h"

namespace pb {

struct FrameSpec {
  wb::core::UplinkSimConfig sim;
  wb::BitVec frame;           ///< preamble + payload, as the tag sends it
  wb::TimeUs symbol_us{0};    ///< bit duration, or chip duration when coded
  std::optional<wb::OrthogonalCodePair> codes;
  wb::TimeUs start_us{0};     ///< frame start
  wb::TimeUs until_us{0};     ///< end of the capture
  double helper_pps = 3000.0;
  std::uint64_t traffic_seed = 0;  ///< RngStream seed, forked "traffic"
};

/// Simulates `f`. With a tracer, records wifi.traffic, phy.channel.init,
/// phy.channel and wifi.nic spans; without one, calls UplinkSim::run.
wb::wifi::CaptureTrace simulate(const FrameSpec& f, Tracer* t);

/// Record-by-record equality (timestamps, source, CSI and RSSI).
bool same_trace(const wb::wifi::CaptureTrace& a,
                const wb::wifi::CaptureTrace& b);

}  // namespace pb
