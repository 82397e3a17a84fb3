#include "core/experiments.h"

#include <algorithm>

#include "core/downlink_sim.h"
#include "core/frame.h"
#include "core/rate_control.h"
#include "reader/corr_decoder.h"
#include "reader/decode_workspace.h"
#include "reader/downlink_encoder.h"
#include "runner/seed_derive.h"
#include "sim/rng.h"
#include "tag/modulator.h"
#include "util/check.h"
#include "wifi/traffic.h"

namespace wb::core {

phy::UplinkChannelParams make_channel_params(
    const UplinkExperimentParams& p) {
  phy::UplinkChannelParams ch;
  if (p.helper_pos && p.reader_pos && p.tag_pos) {
    ch.helper_pos = *p.helper_pos;
    ch.reader_pos = *p.reader_pos;
    ch.tag_pos = *p.tag_pos;
  } else {
    ch.reader_pos = {0.0, 0.0};
    ch.tag_pos = {p.tag_reader_distance_m.value(), 0.0};
    ch.helper_pos = {
        (p.tag_reader_distance_m + p.helper_tag_distance_m).value(), 0.0};
  }
  ch.plan = p.plan;
  return ch;
}

namespace {

/// Margin of trace captured before/after the tag frame.
constexpr TimeUs kLeadUs{600'000};   // fills the 400 ms conditioning window
constexpr TimeUs kTailUs{100'000};

/// Per-run frame seed of the plain uplink loop: drives the payload,
/// traffic, NIC noise and (unless channel_seed pins it) the channel draw
/// of one simulated frame.
std::uint64_t frame_seed(const UplinkExperimentParams& p, std::uint64_t run) {
  return p.seed * 0x9e3779b97f4a7c15ull + run * 0xc2b2ae3d27d4eb4full + 1;
}

/// One simulated frame: the payload the tag sent and the raw capture.
struct SimOutput {
  BitVec sent;
  wifi::CaptureTrace trace;
};

/// The frame simulator of every uplink experiment: a Barker preamble and
/// `p.payload_bits` random bits (seed ^ payload_salt), starting kLeadUs
/// into a capture that ends kTailUs after the frame, over helper traffic
/// from the seed's "traffic" fork. With `codes`, each bit is sent as an
/// L-chip code and p's bit duration is the chip duration.
SimOutput simulate_frame(const UplinkExperimentParams& p, std::uint64_t seed,
                         std::uint64_t payload_salt,
                         const OrthogonalCodePair* codes = nullptr) {
  UplinkSimConfig sim_cfg;
  sim_cfg.channel = make_channel_params(p);
  sim_cfg.nic = p.nic;
  sim_cfg.seed = seed;
  sim_cfg.channel_seed = p.channel_seed;

  SimOutput out;
  out.sent = random_bits(p.payload_bits, seed ^ payload_salt);
  BitVec frame = barker13();
  frame.insert(frame.end(), out.sent.begin(), out.sent.end());

  const TimeUs symbol_us = p.bit_duration_us();
  const std::size_t symbols = frame.size() * (codes ? codes->length() : 1);
  const TimeUs until =
      kLeadUs + symbol_us * static_cast<std::int64_t>(symbols) + kTailUs;

  sim::RngStream rng(seed);
  auto traffic_rng = rng.fork("traffic");
  const auto timeline =
      p.beacons_only
          ? wifi::make_beacon_timeline(p.helper_pps, until, /*source=*/1,
                                       traffic_rng)
      : p.paced_traffic
          ? wifi::make_cbr_timeline(p.helper_pps, until,
                                    wifi::TrafficParams{}, traffic_rng)
          : wifi::make_poisson_timeline(p.helper_pps, until,
                                        wifi::TrafficParams{}, traffic_rng);

  const tag::Modulator mod =
      codes ? tag::Modulator(frame, *codes, symbol_us, kLeadUs)
            : tag::Modulator(frame, symbol_us, kLeadUs);
  UplinkSim sim(sim_cfg);
  out.trace = sim.run(timeline, mod);
  return out;
}

/// One measurement's running counts.
struct Tally {
  BerCounter ber;
  std::size_t failed_syncs = 0;
  std::size_t delivered = 0;

  /// Adds one run's outcome: a failed sync counts every bit wrong.
  template <typename DecodeResult>
  void add(const BitVec& sent, const DecodeResult& result) {
    const std::size_t errors_before = ber.errors();
    if (result.found) {
      ber.add(sent, result.payload);
      if (ber.errors() == errors_before) ++delivered;
    } else {
      ber.add_counts(sent.size(), sent.size());
      ++failed_syncs;
    }
  }

  BerMeasurement measurement() const {
    return {ber.ber_floored(), ber.ber(),    ber.bits(),
            ber.errors(),      failed_syncs, delivered};
  }
};

/// Decoder configuration for one decode of a plain uplink measurement's
/// frames. Run-invariant (the frame start is the fixed query lead time),
/// so the loop hoists the decoder — and with it a workspace and result
/// buffers — out of the runs (DESIGN.md §15).
reader::UplinkDecoderConfig decoder_config(const UplinkExperimentParams& p,
                                           const UplinkDecode& d) {
  const TimeUs bit_us = p.bit_duration_us();
  reader::UplinkDecoderConfig dec;
  dec.source = d.source;
  dec.preamble = barker13();
  dec.payload_bits = p.payload_bits;
  dec.bit_duration_us = bit_us;
  dec.movavg_window_us = d.movavg_window_us;
  dec.num_good_streams = d.streams != UplinkStreams::kTopG ||
                                 d.source == reader::MeasurementSource::kRssi
                             ? 1
                             : d.num_good_streams;
  dec.hysteresis_sigma = d.hysteresis_sigma;
  dec.sync_threshold = d.sync_threshold;
  if (d.streams == UplinkStreams::kEachAlone) {
    // Per-stream maps assume known frame timing (the paper computes them
    // offline per placement).
    dec.search_from = kLeadUs;
    dec.search_to = kLeadUs;
  } else {
    // The reader knows roughly when it queried the tag; search +-2 bits.
    dec.search_from = kLeadUs - 2 * bit_us;
    dec.search_to = kLeadUs + 2 * bit_us;
  }
  return dec;
}

}  // namespace

UplinkDecode decode_of(const UplinkExperimentParams& p,
                       UplinkStreams streams) {
  UplinkDecode d;
  d.streams = streams;
  d.source = p.source;
  d.num_good_streams = p.num_good_streams;
  d.hysteresis_sigma = p.hysteresis_sigma;
  d.movavg_window_us = p.movavg_window_us;
  d.sync_threshold = p.sync_threshold;
  return d;
}

std::vector<std::vector<BerMeasurement>> measure_uplink(
    const UplinkExperimentParams& frames,
    std::span<const UplinkDecode> decodes) {
  std::vector<reader::UplinkDecoder> decoders;
  std::vector<std::vector<Tally>> tallies;
  decoders.reserve(decodes.size());
  for (const UplinkDecode& d : decodes) {
    const bool each = d.streams == UplinkStreams::kEachAlone;
    WB_REQUIRE(!each || d.source == reader::MeasurementSource::kCsi);
    decoders.emplace_back(decoder_config(frames, d));
    tallies.emplace_back(each ? wifi::kNumCsiStreams : 1);
  }
  reader::DecodeWorkspace ws;
  reader::ConditionedTrace ct;
  reader::ConditionedTrace single;
  reader::UplinkDecodeResult result;
  for (std::size_t run = 0; run < frames.runs; ++run) {
    const std::uint64_t seed = frame_seed(frames, run);
    const auto out = simulate_frame(frames, seed, 0x5151u);
    for (std::size_t i = 0; i < decodes.size(); ++i) {
      const UplinkDecode& d = decodes[i];
      if (d.streams == UplinkStreams::kTopG) {
        decoders[i].decode_into(out.trace, ws, result);
        tallies[i][0].add(out.sent, result);
        continue;
      }
      // One conditioning per frame, then one-stream decodes of it.
      reader::condition_into(out.trace, d.source, d.movavg_window_us, ws, ct);
      std::size_t first = 0;
      std::size_t last = ct.num_streams();
      if (d.streams == UplinkStreams::kRandomOne) {
        auto pick_rng = sim::RngStream(seed).fork("random-stream");
        first = pick_rng.uniform_int(ct.num_streams());
        last = first + 1;
      }
      for (std::size_t s = first; s < last; ++s) {
        reader::copy_stream(ct, s, single);
        decoders[i].decode_conditioned_into(single, ws, result);
        tallies[i][d.streams == UplinkStreams::kRandomOne ? 0 : s].add(
            out.sent, result);
      }
    }
  }
  std::vector<std::vector<BerMeasurement>> measurements(decodes.size());
  for (std::size_t i = 0; i < decodes.size(); ++i) {
    for (const Tally& t : tallies[i]) {
      measurements[i].push_back(t.measurement());
    }
  }
  return measurements;
}

BerMeasurement measure_uplink_ber(const UplinkExperimentParams& p) {
  const UplinkDecode d = decode_of(p);
  return measure_uplink(p, {&d, 1})[0][0];
}

double achievable_bit_rate(UplinkExperimentParams p, double target_ber) {
  double best = 0.0;
  for (double rate : kSupportedBitRates) {
    const double m = p.helper_pps / rate;
    if (m < 1.0) continue;  // cannot even get one measurement per bit
    UplinkExperimentParams q = p;
    q.packets_per_bit = m;
    const auto meas = measure_uplink_ber(q);
    // Compare the raw error ratio: the floored convention would make small
    // samples unable to pass any threshold below their floor.
    if (meas.ber_raw < target_ber) best = std::max(best, rate);
  }
  return best;
}

BerMeasurement measure_coded_uplink_ber(const CodedExperimentParams& p) {
  // Plain uplink frames whose symbols are chips. Codes, chip duration and
  // the decoder are run-invariant; the runs only redraw payloads, noise
  // and traffic.
  UplinkExperimentParams frames;
  frames.tag_reader_distance_m = p.tag_reader_distance_m;
  frames.helper_tag_distance_m = p.helper_tag_distance_m;
  frames.helper_pps = p.helper_pps;
  frames.packets_per_bit = p.packets_per_chip;
  frames.payload_bits = p.payload_bits;
  frames.paced_traffic = p.paced_traffic;
  frames.channel_seed = p.channel_seed;
  const auto codes = make_orthogonal_pair(p.code_length);

  reader::CodedDecoderConfig dec;
  dec.codes = codes;
  dec.preamble = barker13();
  dec.payload_bits = p.payload_bits;
  dec.chip_duration_us = frames.bit_duration_us();
  dec.known_start = kLeadUs;  // query-synchronised experiment (§10)
  const reader::CodedUplinkDecoder decoder(dec);
  reader::DecodeWorkspace ws;
  reader::CodedDecodeResult result;
  Tally tally;
  for (std::size_t run = 0; run < p.runs; ++run) {
    const std::uint64_t seed =
        p.seed * 0x9e3779b97f4a7c15ull + run * 0xff51afd7ed558ccdull + 1;
    const auto out = simulate_frame(frames, seed, 0xabcdu, &codes);
    decoder.decode_into(out.trace, ws, result);
    tally.add(out.sent, result);
  }
  return tally.measurement();
}

std::size_t required_correlation_length(
    CodedExperimentParams p, const std::vector<std::size_t>& candidates,
    double target) {
  for (std::size_t l : candidates) {
    CodedExperimentParams q = p;
    q.code_length = l;
    const auto m = measure_coded_uplink_ber(q);
    if (m.ber_raw < target) return l;
  }
  return 0;
}

BerMeasurement measure_downlink_ber(const DownlinkExperimentParams& p) {
  reader::DownlinkEncoderConfig enc_cfg;
  enc_cfg.slot_us = p.slot_us;
  reader::DownlinkEncoder encoder(enc_cfg);

  const std::size_t burst_bits =
      std::min<std::size_t>(enc_cfg.bits_per_chunk(), p.max_burst_bits);
  Tally tally;
  std::size_t sent = 0;
  std::uint64_t round = 0;
  while (sent < p.total_bits) {
    const std::size_t n = std::min(burst_bits, p.total_bits - sent);
    BitVec message = downlink_preamble();
    const BitVec data = random_bits(n, p.seed + round);
    message.insert(message.end(), data.begin(), data.end());
    const auto tx = encoder.encode(message, /*start_us=*/TimeUs{500});

    DownlinkSimConfig cfg;
    cfg.reader_tag_distance_m = p.reader_tag_distance_m;
    cfg.mcu.bit_duration_us = p.slot_us;
    cfg.seed = p.seed * 0x9e3779b9ull + round;
    DownlinkSim sim(cfg);
    const auto report = sim.run(tx, /*ambient=*/{}, tx.end_us + TimeUs{1'000});

    // Compare detector slot decisions against the transmitted bits.
    BitVec truth;
    truth.reserve(tx.slots.size());
    for (const auto& s : tx.slots) truth.push_back(s.bit);
    tally.ber.add(truth, report.slot_levels);
    sent += n;
    ++round;
  }
  return tally.measurement();
}

std::vector<UplinkGridPoint> expand_uplink_grid(const UplinkGridSpec& spec) {
  std::vector<UplinkGridPoint> grid;
  grid.reserve(spec.sources.size() * spec.distances_m.size() *
               spec.packets_per_bit.size());
  for (const auto source : spec.sources) {
    for (const double distance_m : spec.distances_m) {
      for (const double pkts : spec.packets_per_bit) {
        UplinkGridPoint pt;
        pt.index = grid.size();
        pt.source = source;
        pt.distance_m = Meters{distance_m};
        pt.packets_per_bit = pkts;
        pt.params = spec.base;
        pt.params.source = source;
        pt.params.tag_reader_distance_m = Meters{distance_m};
        pt.params.packets_per_bit = pkts;
        pt.params.seed = runner::derive_seed(spec.base.seed, pt.index);
        grid.push_back(std::move(pt));
      }
    }
  }
  return grid;
}

std::vector<CodedGridPoint> expand_coded_grid(const CodedGridSpec& spec) {
  std::vector<CodedGridPoint> grid;
  grid.reserve(spec.distances_m.size() * spec.placements);
  for (const double distance_m : spec.distances_m) {
    for (std::size_t placement = 0; placement < spec.placements;
         ++placement) {
      CodedGridPoint pt;
      pt.index = grid.size();
      pt.distance_m = Meters{distance_m};
      pt.placement = placement;
      pt.params = spec.base;
      pt.params.tag_reader_distance_m = Meters{distance_m};
      pt.params.channel_seed = spec.placement_channel_seed_base + placement;
      pt.params.seed = runner::derive_seed(spec.base.seed, pt.index);
      grid.push_back(std::move(pt));
    }
  }
  return grid;
}

std::vector<DownlinkGridPoint> expand_downlink_grid(
    const DownlinkGridSpec& spec) {
  std::vector<DownlinkGridPoint> grid;
  grid.reserve(spec.distances_m.size() * spec.slot_durations_us.size());
  for (const double distance_m : spec.distances_m) {
    for (const TimeUs slot_us : spec.slot_durations_us) {
      DownlinkGridPoint pt;
      pt.index = grid.size();
      pt.distance_m = Meters{distance_m};
      pt.slot_us = slot_us;
      pt.params = spec.base;
      pt.params.reader_tag_distance_m = Meters{distance_m};
      pt.params.slot_us = slot_us;
      pt.params.seed = runner::derive_seed(spec.base.seed, pt.index);
      grid.push_back(std::move(pt));
    }
  }
  return grid;
}

}  // namespace wb::core
