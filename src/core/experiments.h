// Reusable experiment drivers behind the paper's evaluation figures.
// Each bench binary is a thin loop over one of these; keeping the logic
// here lets the test suite exercise the exact code that generates the
// numbers in EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/uplink_sim.h"
#include "wifi/nic.h"
#include "reader/conditioning.h"
#include "reader/uplink_decoder.h"
#include "util/stats.h"
#include "util/units.h"

namespace wb::core {

// ---------------------------------------------------------------- uplink

/// Parameters shared by the uplink BER experiments (§7.1 setup).
struct UplinkExperimentParams {
  Meters tag_reader_distance_m{0.05};
  Meters helper_tag_distance_m{3.0};
  double helper_pps = 3000.0;
  double packets_per_bit = 30.0;  ///< M; bit rate = helper_pps / M
  std::size_t payload_bits = 77;  ///< 90-bit message incl. 13-bit preamble

  /// Paced (CBR) helper injection, as the paper's §7.1-§7.2 experiments
  /// ("we insert a delay between injected packets"); false = Poisson
  /// ambient arrivals.
  bool paced_traffic = true;

  /// Helper transmits only periodic beacons (§7.5 / Fig 16). Beacons carry
  /// no CSI on the paper's NIC, so set source = kRssi with this.
  bool beacons_only = false;
  std::size_t runs = 20;
  reader::MeasurementSource source = reader::MeasurementSource::kCsi;
  std::uint64_t seed = 42;

  /// Optional wall/floor-plan geometry override (Fig 13/14): when set, the
  /// positions below are used verbatim instead of the collinear layout.
  std::optional<phy::Vec2> helper_pos;
  std::optional<phy::Vec2> reader_pos;
  std::optional<phy::Vec2> tag_pos;
  const phy::FloorPlan* plan = nullptr;

  /// NIC model override (defaults model the Intel 5300).
  wifi::NicModelParams nic{};

  /// When set, every run reuses this channel realisation (one physical
  /// placement, as in the paper's single-setup experiments); otherwise
  /// each run redraws the placement.
  std::optional<std::uint64_t> channel_seed;

  /// Decoder overrides.
  std::size_t num_good_streams = 10;
  double hysteresis_sigma = 0.25;
  TimeUs movavg_window_us{400'000};
  /// Minimum sync score to accept a frame (0 = accept the best window
  /// unconditionally, the paper's offline-decode behaviour). Runs whose
  /// best score falls below count as failed syncs — and surface in decode
  /// forensics as low_snr drops.
  double sync_threshold = 0.0;

  TimeUs bit_duration_us() const {
    return TimeUs::from_us(1e6 * packets_per_bit / helper_pps);
  }
};

/// Build the channel geometry for a parameter set (collinear by default:
/// reader at origin, tag at distance d, helper beyond the tag).
phy::UplinkChannelParams make_channel_params(
    const UplinkExperimentParams& p);

/// Outcome of a BER sweep point.
struct BerMeasurement {
  double ber = 0.0;      ///< floored per the paper's convention (plots)
  double ber_raw = 0.0;  ///< exact errors/bits (threshold comparisons)
  std::size_t bits = 0;
  std::size_t errors = 0;
  std::size_t failed_syncs = 0;      ///< runs where the frame was never found
  std::size_t frames_delivered = 0;  ///< frames found with zero bit errors
};

/// Which streams one decode of a capture reads.
enum class UplinkStreams {
  kTopG,       ///< the decoder's own preamble-ranked top g (Fig 10)
  kRandomOne,  ///< one per frame, from the frame seed's "random-stream"
               ///< fork (Fig 11's baseline)
  kEachAlone,  ///< each CSI stream alone at the known frame start (Fig 5)
};

/// One way to read a measurement's captures: decoder settings and the
/// streams they run on. Payload bits, bit duration and the search window
/// come from the frames being decoded.
struct UplinkDecode {
  UplinkStreams streams = UplinkStreams::kTopG;
  reader::MeasurementSource source = reader::MeasurementSource::kCsi;
  std::size_t num_good_streams = 10;
  double hysteresis_sigma = 0.25;
  TimeUs movavg_window_us{400'000};
  double sync_threshold = 0.0;
};

/// The decode `p`'s own decoder fields describe, on `streams`.
UplinkDecode decode_of(const UplinkExperimentParams& p,
                       UplinkStreams streams = UplinkStreams::kTopG);

/// The frame loop of every plain-uplink measurement: simulates each of
/// `frames.runs` frames of random payload once and decodes it with every
/// entry of `decodes` before simulating the next, so one capture is alive
/// at a time. Returns, in `decodes` order, one measurement per decode
/// (kEachAlone: one per CSI stream). A run whose sync fails counts every
/// bit wrong (the paper's 20-run averages bury the distinction).
std::vector<std::vector<BerMeasurement>> measure_uplink(
    const UplinkExperimentParams& frames,
    std::span<const UplinkDecode> decodes);

/// Uplink BER at one operating point: the one decode `p` describes.
BerMeasurement measure_uplink_ber(const UplinkExperimentParams& p);

/// Achievable bit rate (§7.2 definition): the largest supported rate
/// {100, 200, 500, 1000} bps whose measured BER is below `target_ber`,
/// given a helper at `helper_pps`; 0 when none qualifies.
double achievable_bit_rate(UplinkExperimentParams p, double target_ber = 1e-2);

// ---------------------------------------------------------------- coded

/// Long-range coded uplink (Fig 20): BER at a distance for a given
/// correlation length L.
struct CodedExperimentParams {
  Meters tag_reader_distance_m{1.6};
  Meters helper_tag_distance_m{3.0};
  double helper_pps = 3000.0;
  double packets_per_chip = 10.0;
  std::size_t code_length = 20;
  std::size_t payload_bits = 16;
  std::size_t runs = 6;
  bool paced_traffic = true;
  std::uint64_t seed = 42;

  /// When set, every run reuses this channel realisation (one placement).
  std::optional<std::uint64_t> channel_seed;
};

BerMeasurement measure_coded_uplink_ber(const CodedExperimentParams& p);

/// Smallest correlation length from `candidates` achieving BER below
/// `target` at the given distance; 0 if none.
std::size_t required_correlation_length(
    CodedExperimentParams p, const std::vector<std::size_t>& candidates,
    double target = 1e-2);

// ------------------------------------------------------------- downlink

/// Downlink BER driver shared by bench_fig17 and the CLI (§8.1 setup):
/// transmits `total_bits` in NAV-reservation-sized bursts with the
/// downlink preamble prepended to each (so the peak detector charges as
/// it would mid-message) and counts the tag's slot decisions against the
/// transmitted bits.
struct DownlinkExperimentParams {
  Meters reader_tag_distance_m{1.5};
  TimeUs slot_us{50};  ///< bit duration; 50 us = 20 kbps
  std::size_t total_bits = 20'000;
  /// Bursts are min(encoder bits_per_chunk, this) bits long.
  std::size_t max_burst_bits = 600;
  std::uint64_t seed = 1234;
};

BerMeasurement measure_downlink_ber(const DownlinkExperimentParams& p);

// -------------------------------------------------------------- sweeps
//
// Declarative grids for wb::runner parallel sweeps. Expansion is a pure
// function of the spec: every point's full parameter set — including its
// seed — is fixed before any task executes, which is what makes sweep
// results independent of thread count and scheduling. By default each
// point's seed is runner::derive_seed(base.seed, index); callers that
// must reproduce a legacy per-point seed formula can overwrite
// `params.seed` on the expanded grid before running it.

/// Cross product sources × distances × packets_per_bit, indexed row-major
/// in that order (source-major matches Fig 10's per-source tables).
struct UplinkGridSpec {
  UplinkExperimentParams base;  ///< template every point starts from
  std::vector<reader::MeasurementSource> sources = {
      reader::MeasurementSource::kCsi};
  std::vector<double> distances_m;
  std::vector<double> packets_per_bit;
};

struct UplinkGridPoint {
  std::size_t index = 0;
  reader::MeasurementSource source = reader::MeasurementSource::kCsi;
  Meters distance_m{};
  double packets_per_bit = 0.0;
  UplinkExperimentParams params;
};

std::vector<UplinkGridPoint> expand_uplink_grid(const UplinkGridSpec& spec);

/// Cross product distances × placements (Fig 20's median-over-placements
/// layout), distance-major. Each placement pins its channel realisation
/// via `channel_seed = placement_channel_seed_base + placement`.
struct CodedGridSpec {
  CodedExperimentParams base;
  std::vector<double> distances_m;
  std::size_t placements = 1;
  std::uint64_t placement_channel_seed_base = 100;
};

struct CodedGridPoint {
  std::size_t index = 0;
  Meters distance_m{};
  std::size_t placement = 0;
  CodedExperimentParams params;
};

std::vector<CodedGridPoint> expand_coded_grid(const CodedGridSpec& spec);

/// Cross product distances × slot durations (Fig 17), distance-major.
struct DownlinkGridSpec {
  DownlinkExperimentParams base;
  std::vector<double> distances_m;
  std::vector<TimeUs> slot_durations_us;
};

struct DownlinkGridPoint {
  std::size_t index = 0;
  Meters distance_m{};
  TimeUs slot_us{0};
  DownlinkExperimentParams params;
};

std::vector<DownlinkGridPoint> expand_downlink_grid(
    const DownlinkGridSpec& spec);

}  // namespace wb::core
