#include "core/experiments.h"

#include <algorithm>

#include "core/downlink_sim.h"
#include "core/frame.h"
#include "core/rate_control.h"
#include "reader/corr_decoder.h"
#include "reader/decode_workspace.h"
#include "reader/downlink_encoder.h"
#include "runner/seed_derive.h"
#include "tag/modulator.h"

namespace wb::core {
namespace {

/// Margin of trace captured before/after the tag frame.
constexpr TimeUs kLeadUs{600'000};   // fills the 400 ms conditioning window
constexpr TimeUs kTailUs{100'000};

wifi::PacketTimeline make_helper_timeline(bool paced, double pps,
                                          TimeUs until,
                                          sim::RngStream& rng) {
  return paced ? wifi::make_cbr_timeline(pps, until, wifi::TrafficParams{},
                                         rng)
               : wifi::make_poisson_timeline(pps, until,
                                             wifi::TrafficParams{}, rng);
}

wifi::PacketTimeline make_experiment_timeline(
    const UplinkExperimentParams& p, TimeUs until, sim::RngStream& rng) {
  if (p.beacons_only) {
    return wifi::make_beacon_timeline(p.helper_pps, until, /*source=*/1,
                                      rng);
  }
  return make_helper_timeline(p.paced_traffic, p.helper_pps, until, rng);
}

}  // namespace

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

/// Per-run frame seed: drives the payload, traffic, NIC noise and (unless
/// channel_seed pins it) the channel draw of one simulated frame.
std::uint64_t frame_seed(const UplinkExperimentParams& p, std::uint64_t run) {
  return p.seed * 0x9e3779b97f4a7c15ull + run * 0xc2b2ae3d27d4eb4full + 1;
}

/// One simulated frame: the payload the tag sent and the raw capture.
struct SimOutput {
  BitVec sent;
  wifi::CaptureTrace trace;
};

SimOutput simulate_one_frame(const UplinkExperimentParams& p,
                             std::uint64_t run) {
  const TimeUs bit_us = p.bit_duration_us();
  const std::uint64_t seed = frame_seed(p, run);

  UplinkSimConfig sim_cfg;
  sim_cfg.channel = make_channel_params(p);
  sim_cfg.nic = p.nic;
  sim_cfg.seed = seed;
  sim_cfg.channel_seed = p.channel_seed;

  const BitVec payload = random_bits(p.payload_bits, seed ^ 0x5151u);
  BitVec frame = barker13();
  frame.insert(frame.end(), payload.begin(), payload.end());

  const TimeUs frame_start = kLeadUs;
  const TimeUs frame_dur =
      bit_us * static_cast<std::int64_t>(frame.size());
  const TimeUs until = frame_start + frame_dur + kTailUs;

  sim::RngStream rng(seed);
  auto traffic_rng = rng.fork("traffic");
  const auto timeline = make_experiment_timeline(p, until, traffic_rng);

  tag::Modulator mod(frame, bit_us, frame_start);
  UplinkSim sim(sim_cfg);
  SimOutput out;
  out.sent = payload;
  out.trace = sim.run(timeline, mod);
  return out;
}

/// Adds one run's outcome: a failed sync counts every bit wrong.
template <typename DecodeResult>
void add_run(BerCounter& ber, const BitVec& sent,
             const DecodeResult& result) {
  if (result.found) {
    ber.add(sent, result.payload);
  } else {
    ber.add_counts(sent.size(), sent.size());
  }
}

BerMeasurement to_measurement(const BerCounter& ber,
                              std::size_t failed_syncs) {
  BerMeasurement m;
  m.ber = ber.ber_floored();
  m.ber_raw = ber.ber();
  m.bits = ber.bits();
  m.errors = ber.errors();
  m.failed_syncs = failed_syncs;
  return m;
}

/// Decoder configuration for the plain uplink experiments. Run-invariant
/// (the frame start is the fixed query lead time), so callers hoist the
/// decoder — and with it a workspace and result buffers — out of the run
/// loop and decode every trace through decode_into (DESIGN.md §15).
reader::UplinkDecoderConfig experiment_decoder_config(
    const UplinkExperimentParams& p) {
  const TimeUs bit_us = p.bit_duration_us();
  reader::UplinkDecoderConfig dec;
  dec.source = p.source;
  dec.preamble = barker13();
  dec.payload_bits = p.payload_bits;
  dec.bit_duration_us = bit_us;
  dec.movavg_window_us = p.movavg_window_us;
  dec.num_good_streams =
      p.source == reader::MeasurementSource::kRssi ? 1 : p.num_good_streams;
  dec.hysteresis_sigma = p.hysteresis_sigma;
  dec.sync_threshold = p.sync_threshold;
  // The reader knows roughly when it queried the tag; search +-2 bits.
  dec.search_from = kLeadUs - 2 * bit_us;
  dec.search_to = kLeadUs + 2 * bit_us;
  return dec;
}

}  // namespace

BerMeasurement measure_uplink_ber(const UplinkExperimentParams& p) {
  BerCounter ber;
  std::size_t failed_syncs = 0;
  const reader::UplinkDecoder decoder(experiment_decoder_config(p));
  reader::DecodeWorkspace ws;
  reader::UplinkDecodeResult result;
  for (std::size_t run = 0; run < p.runs; ++run) {
    const auto out = simulate_one_frame(p, run);
    decoder.decode_into(out.trace, ws, result);
    if (!result.found) ++failed_syncs;
    add_run(ber, out.sent, result);
  }
  return to_measurement(ber, failed_syncs);
}

BerMeasurement measure_uplink_ber_random_stream(
    const UplinkExperimentParams& p) {
  // The full pipeline's frames and conditioning, decoded from one
  // randomly chosen stream per run.
  reader::UplinkDecoderConfig dec = experiment_decoder_config(p);
  dec.num_good_streams = 1;
  const reader::UplinkDecoder decoder(dec);
  reader::DecodeWorkspace ws;
  reader::ConditionedTrace ct;
  reader::ConditionedTrace single;
  reader::UplinkDecodeResult result;
  BerCounter ber;
  std::size_t failed_syncs = 0;
  for (std::size_t run = 0; run < p.runs; ++run) {
    const auto out = simulate_one_frame(p, run);
    reader::condition_into(out.trace, p.source, p.movavg_window_us, ws, ct);
    auto pick_rng = sim::RngStream(frame_seed(p, run)).fork("random-stream");
    const std::size_t pick = pick_rng.uniform_int(ct.num_streams());
    reader::copy_stream(ct, pick, single);
    decoder.decode_conditioned_into(single, ws, result);
    if (!result.found) ++failed_syncs;
    add_run(ber, out.sent, result);
  }
  return to_measurement(ber, failed_syncs);
}

std::vector<double> measure_per_stream_ber(const UplinkExperimentParams& p) {
  // One physical placement per distance: Fig 5 maps *which* sub-channels
  // are good for a given multipath profile, so unless the caller pins a
  // channel, it is drawn once from p.seed (only noise and traffic vary
  // between runs).
  UplinkExperimentParams q = p;
  if (!q.channel_seed) q.channel_seed = p.seed;
  // Per-stream decoding assumes frame timing is known (the paper's
  // per-sub-channel BER maps are computed offline per placement).
  reader::UplinkDecoderConfig dec = experiment_decoder_config(q);
  dec.num_good_streams = 1;
  dec.search_from = kLeadUs;
  dec.search_to = kLeadUs;
  const reader::UplinkDecoder decoder(dec);
  reader::DecodeWorkspace ws;
  reader::ConditionedTrace ct;
  reader::ConditionedTrace single;
  reader::UplinkDecodeResult result;
  std::vector<BerCounter> counters(wifi::kNumCsiStreams);
  for (std::size_t run = 0; run < q.runs; ++run) {
    const auto out = simulate_one_frame(q, run);
    reader::condition_into(out.trace, reader::MeasurementSource::kCsi,
                           q.movavg_window_us, ws, ct);
    for (std::size_t s = 0; s < ct.num_streams(); ++s) {
      reader::copy_stream(ct, s, single);
      decoder.decode_conditioned_into(single, ws, result);
      add_run(counters[s], out.sent, result);
    }
  }
  std::vector<double> bers(counters.size());
  for (std::size_t s = 0; s < counters.size(); ++s) {
    bers[s] = counters[s].ber_floored();
  }
  return bers;
}

double measure_packet_delivery(const UplinkExperimentParams& p) {
  std::size_t delivered = 0;
  const reader::UplinkDecoder decoder(experiment_decoder_config(p));
  reader::DecodeWorkspace ws;
  reader::UplinkDecodeResult result;
  for (std::size_t run = 0; run < p.runs; ++run) {
    const auto out = simulate_one_frame(p, run);
    decoder.decode_into(out.trace, ws, result);
    if (result.found && hamming_distance(out.sent, result.payload) == 0) {
      ++delivered;
    }
  }
  return p.runs ? static_cast<double>(delivered) /
                      static_cast<double>(p.runs)
                : 0.0;
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
  BerCounter ber;
  std::size_t failed_syncs = 0;
  // Codes, chip duration and the decoder are run-invariant; the runs only
  // redraw payloads, noise and traffic. Hoisting them (with a workspace)
  // makes the loop allocation-light, same as measure_uplink_ber.
  const auto chip_us =
      TimeUs::from_us(1e6 * p.packets_per_chip / p.helper_pps);
  const auto codes = make_orthogonal_pair(p.code_length);
  const TimeUs frame_start = kLeadUs;

  reader::CodedDecoderConfig dec;
  dec.codes = codes;
  dec.preamble = barker13();
  dec.payload_bits = p.payload_bits;
  dec.chip_duration_us = chip_us;
  dec.known_start = frame_start;  // query-synchronised experiment (§10)
  const reader::CodedUplinkDecoder decoder(dec);
  reader::DecodeWorkspace ws;
  reader::CodedDecodeResult result;

  for (std::size_t run = 0; run < p.runs; ++run) {
    const std::uint64_t seed =
        p.seed * 0x9e3779b97f4a7c15ull + run * 0xff51afd7ed558ccdull + 1;

    UplinkExperimentParams geo;
    geo.tag_reader_distance_m = p.tag_reader_distance_m;
    geo.helper_tag_distance_m = p.helper_tag_distance_m;
    UplinkSimConfig sim_cfg;
    sim_cfg.channel = make_channel_params(geo);
    sim_cfg.seed = seed;
    sim_cfg.channel_seed = p.channel_seed;

    const BitVec payload = random_bits(p.payload_bits, seed ^ 0xabcdu);
    BitVec frame = barker13();
    frame.insert(frame.end(), payload.begin(), payload.end());

    const TimeUs frame_dur =
        chip_us * static_cast<std::int64_t>(frame.size() * p.code_length);
    const TimeUs until = frame_start + frame_dur + kTailUs;

    sim::RngStream rng(seed);
    auto traffic_rng = rng.fork("traffic");
    const auto timeline = make_helper_timeline(p.paced_traffic, p.helper_pps,
                                               until, traffic_rng);

    tag::Modulator mod(frame, codes, chip_us, frame_start);
    UplinkSim sim(sim_cfg);
    const auto trace = sim.run(timeline, mod);

    decoder.decode_into(trace, ws, result);
    if (!result.found) ++failed_syncs;
    add_run(ber, payload, result);
  }
  return to_measurement(ber, failed_syncs);
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
  BerCounter ber;
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
    ber.add(truth, report.slot_levels);
    sent += n;
    ++round;
  }
  return to_measurement(ber, 0);
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
