// WiFiBackscatterSystem — the public, end-to-end API of the library.
//
// Wires the whole paper together: a Wi-Fi reader (downlink encoder +
// uplink decoder + rate control), a Wi-Fi helper (traffic source), and an
// RF-powered tag (energy-detector receiver + MCU + backscatter modulator)
// placed in a simulated indoor channel. The interaction model is the
// paper's request-response protocol (§2, §5):
//
//   1. the reader measures the helper's packet rate and picks the uplink
//      bit rate N/M;
//   2. the reader transmits a query on the downlink (CTS_to_SELF +
//      packet-presence OOK), retrying until the tag decodes it;
//   3. the tag answers on the uplink by backscattering the helper's
//      packets at the commanded bit rate;
//   4. the reader decodes the response from its per-packet CSI (or RSSI).
//
// See examples/quickstart.cpp for the canonical usage.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/downlink_sim.h"
#include "core/frame.h"
#include "core/rate_control.h"
#include "core/uplink_sim.h"
#include "reader/downlink_encoder.h"
#include "reader/uplink_decoder.h"

namespace wb::core {

struct SystemConfig {
  /// Tag-to-reader distance (the paper's main performance axis).
  Meters tag_reader_distance_m{0.15};

  /// Helper (AP) to tag distance.
  Meters helper_distance_m{3.0};

  /// Helper traffic rate, packets/s.
  double helper_pps = 1000.0;

  /// Decode uplink from CSI or RSSI.
  reader::MeasurementSource uplink_source = reader::MeasurementSource::kCsi;

  /// Measurements the reader wants per uplink bit (M in §5).
  double packets_per_bit = 10.0;

  /// Downlink slot length (50 us == 20 kbps).
  TimeUs downlink_slot_us{50};

  /// How many times the reader re-sends an unanswered query (§4.1).
  std::size_t max_query_attempts = 4;

  /// Use the §4.1 single-bit ACK: after each downlink attempt the reader
  /// checks for the tag's short acknowledgment pattern before waiting for
  /// the full (much slower) uplink response, so failed deliveries are
  /// detected at ACK speed instead of response-timeout speed.
  bool ack_enabled = false;

  /// Hardware models (defaults reproduce the prototype).
  wifi::NicModelParams nic{};
  tag::EnergyDetectorParams detector{};
  phy::MultipathProfile multipath{};
  phy::ChannelDrift::Params drift{};
  phy::TagReflection tag_reflection{};

  std::uint64_t seed = 1;
};

/// Result of one downlink delivery attempt(s).
struct DownlinkOutcome {
  bool delivered = false;
  std::size_t attempts = 0;
  std::optional<Query> decoded_query;  ///< what the tag decoded
  double tag_energy_uj = 0.0;          ///< detector + MCU energy spent
  std::optional<bool> ack_detected;    ///< §4.1 ACK result, if enabled
  TimeUs simulated_us{0};             ///< virtual time this leg simulated
};

/// Result of one uplink response.
struct UplinkOutcome {
  bool delivered = false;     ///< sync found and CRC valid
  bool sync_found = false;
  BitVec data;                ///< recovered data bits (CRC-checked)
  double bit_rate_bps = 0.0;  ///< rate the tag used
  std::size_t bit_errors = 0; ///< vs the tag's transmitted frame (oracle)
  std::size_t bits_total = 0;
  TimeUs simulated_us{0};    ///< virtual time this leg simulated
};

/// A full query-response round trip.
struct QueryOutcome {
  DownlinkOutcome downlink;
  UplinkOutcome uplink;
  bool success() const { return downlink.delivered && uplink.delivered; }
};

/// Why `cfg` cannot run, or nullptr. WiFiBackscatterSystem's constructor
/// requires it to pass; callers holding user input (the CLI) check it
/// first and reject the input instead.
const char* validate(const SystemConfig& cfg);

class WiFiBackscatterSystem {
 public:
  explicit WiFiBackscatterSystem(const SystemConfig& cfg);

  /// Ask the tag `query`; the tag, if it decodes the query, responds with
  /// `tag_data` (its sensor reading) at the commanded bit rate.
  QueryOutcome query(const Query& query, const BitVec& tag_data);

  /// The bit rate the reader's rate control would command right now.
  double commanded_bit_rate() const;

  /// Downlink only: deliver `data` (56 bits) to the tag once (no retry).
  DownlinkOutcome send_downlink(const BitVec& data);

  /// Uplink only: the tag transmits `data` at `bit_rate_bps`; the reader
  /// decodes it.
  UplinkOutcome receive_uplink(const BitVec& data, double bit_rate_bps);

  /// ACK exchange (§4.1): the tag backscatters its short fixed pattern if
  /// `tag_acks`; returns whether the reader detected it.
  bool exchange_ack(bool tag_acks);

  const SystemConfig& config() const { return cfg_; }

 private:
  SystemConfig cfg_;
  std::uint64_t round_ = 0;  ///< salts per-round RNG forks
};

}  // namespace wb::core
