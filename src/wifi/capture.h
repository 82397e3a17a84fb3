// What a monitor-mode Wi-Fi NIC hands to the Wi-Fi Backscatter decoder:
// one record per received packet, carrying the header timestamp plus the
// channel measurements (CSI amplitudes and per-antenna RSSI) the decoder
// operates on. The decoder never sees ground truth — only these records.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "phy/constants.h"
#include "util/units.h"

namespace wb::wifi {

/// Per-packet measurement record, modelled on the output of the Intel 5300
/// CSI tool (timestamp, 30 sub-channel amplitudes x 3 antennas, RSSI).
struct CaptureRecord {
  TimeUs timestamp_us{0};     ///< MAC timestamp from the packet header
  std::uint32_t source = 0;    ///< transmitter station id (from the header)
  bool has_csi = true;         ///< beacons lack CSI on the paper's NIC

  /// CSI amplitude per [antenna][sub-channel], NIC units.
  std::array<std::array<double, phy::kNumSubchannels>, phy::kNumAntennas>
      csi{};

  /// Per-antenna RSSI in dBm, quantised to the NIC's 1 dB resolution.
  std::array<double, phy::kNumAntennas> rssi_dbm{};
};

using CaptureTrace = std::vector<CaptureRecord>;

/// Largest |measurement| (CSI amplitude or RSSI) a record may carry: 2^16,
/// past any 8- or 16-bit NIC report. The reader's conditioning grids
/// (DESIGN.md §15) round every value inside it exactly, so the capture
/// CSV reader and the capture service refuse a record outside it as they
/// refuse a non-finite one.
inline constexpr double kMaxMeasurementMagnitude = 65'536.0;

/// True when v is finite and |v| <= kMaxMeasurementMagnitude (false for
/// NaN: both comparisons fail).
inline bool measurement_in_range(double v) {
  return v >= -kMaxMeasurementMagnitude && v <= kMaxMeasurementMagnitude;
}

/// Total number of scalar CSI streams in a record (antennas x
/// sub-channels) — the decoder treats each as an independent channel
/// (paper §3.2: "treating multiple antennas as additional sub-channels").
inline constexpr std::size_t kNumCsiStreams =
    phy::kNumAntennas * phy::kNumSubchannels;

/// Flatten (antenna, sub-channel) to a stream index.
inline std::size_t stream_index(std::size_t antenna, std::size_t subchannel) {
  return antenna * phy::kNumSubchannels + subchannel;
}

/// Inverse of stream_index.
inline std::size_t stream_antenna(std::size_t stream) {
  return stream / phy::kNumSubchannels;
}
inline std::size_t stream_subchannel(std::size_t stream) {
  return stream % phy::kNumSubchannels;
}

/// CSI amplitude of a flattened stream.
inline double stream_csi(const CaptureRecord& r, std::size_t stream) {
  return r.csi[stream_antenna(stream)][stream_subchannel(stream)];
}

}  // namespace wb::wifi
