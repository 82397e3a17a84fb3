#include "capture.h"

#include "sim/rng.h"
#include "tag/modulator.h"
#include "wifi/traffic.h"

namespace pb {

using namespace wb;

namespace {

tag::Modulator make_modulator(const FrameSpec& f) {
  return f.codes ? tag::Modulator(f.frame, *f.codes, f.symbol_us, f.start_us)
                 : tag::Modulator(f.frame, f.symbol_us, f.start_us);
}

}  // namespace

wifi::CaptureTrace simulate(const FrameSpec& f, Tracer* t) {
  wifi::PacketTimeline timeline;
  {
    Scope s(t, "wifi.traffic");
    auto rng = sim::RngStream(f.traffic_seed).fork("traffic");
    timeline = wifi::make_cbr_timeline(f.helper_pps, f.until_us,
                                       wifi::TrafficParams{}, rng);
  }
  const tag::Modulator mod = make_modulator(f);
  if (t == nullptr) {
    core::UplinkSim sim(f.sim);
    return sim.run(timeline, mod);
  }
  std::optional<core::UplinkSim> sim;
  {
    // Channel realisation draw plus the NIC's one-time calibration.
    Scope s(t, "phy.channel.init");
    sim.emplace(f.sim);
  }
  wifi::CaptureTrace trace;
  trace.reserve(timeline.size());
  for (const auto& pkt : timeline) {
    const bool state = mod.state_at(pkt.start_us);
    phy::CsiMatrix h;
    {
      Scope s(t, "phy.channel");
      h = sim->channel().response(state, pkt.start_us);
    }
    Scope s(t, "wifi.nic");
    trace.push_back(sim->nic().measure(h, pkt.start_us, pkt.source, pkt.kind));
  }
  return trace;
}

bool same_trace(const wifi::CaptureTrace& a, const wifi::CaptureTrace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].timestamp_us != b[i].timestamp_us || a[i].source != b[i].source ||
        a[i].has_csi != b[i].has_csi || a[i].csi != b[i].csi ||
        a[i].rssi_dbm != b[i].rssi_dbm) {
      return false;
    }
  }
  return true;
}

}  // namespace pb
