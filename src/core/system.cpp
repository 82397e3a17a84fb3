#include "core/system.h"

#include "obs/flight_recorder.h"
#include "obs/forensics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reader/ack_detector.h"
#include "tag/modulator.h"
#include "util/check.h"
#include "util/crc.h"

namespace wb::core {

const char* validate(const SystemConfig& cfg) {
  if (!(cfg.tag_reader_distance_m > Meters{})) {
    return "tag-reader distance must be positive";
  }
  if (!(cfg.helper_distance_m > Meters{})) {
    return "helper distance must be positive";
  }
  if (!(cfg.helper_pps > 0.0)) return "helper traffic rate must be positive";
  if (!(cfg.packets_per_bit > 0.0)) return "packets per bit must be positive";
  if (!(cfg.downlink_slot_us > TimeUs{})) {
    return "downlink slot must be positive";
  }
  if (cfg.max_query_attempts == 0) return "query attempts must be positive";
  return nullptr;
}

WiFiBackscatterSystem::WiFiBackscatterSystem(const SystemConfig& cfg)
    : cfg_(cfg) {
  const char* err = validate(cfg);
  WB_REQUIRE(err == nullptr, err);
}

double WiFiBackscatterSystem::commanded_bit_rate() const {
  RateControl rc(RateControlParams{cfg_.packets_per_bit, 0.8});
  return rc.choose_bit_rate(cfg_.helper_pps);
}

DownlinkOutcome WiFiBackscatterSystem::send_downlink(const BitVec& data) {
  DownlinkOutcome out;
  out.attempts = 1;

  reader::DownlinkEncoderConfig enc_cfg;
  enc_cfg.slot_us = cfg_.downlink_slot_us;
  reader::DownlinkEncoder encoder(enc_cfg);
  const BitVec message = build_downlink_frame(data);
  const auto tx = encoder.encode(message, /*start_us=*/TimeUs{2'000});

  DownlinkSimConfig sim_cfg;
  sim_cfg.reader_tag_distance_m = cfg_.tag_reader_distance_m;
  sim_cfg.ambient_distance_m = cfg_.helper_distance_m;
  sim_cfg.detector = cfg_.detector;
  sim_cfg.mcu.bit_duration_us = cfg_.downlink_slot_us;
  sim_cfg.mcu.payload_bits = kDownlinkPayloadBits;
  sim_cfg.seed = cfg_.seed ^ (0x9e3779b9u + round_++);

  // Ambient helper traffic keeps flowing around the reserved window.
  sim::RngStream traffic_rng(sim_cfg.seed);
  auto rng = traffic_rng.fork("downlink-ambient");
  const TimeUs until = tx.end_us + TimeUs{5'000};
  const auto ambient = wifi::make_poisson_timeline(
      cfg_.helper_pps, until, wifi::TrafficParams{}, rng);

  DownlinkSim sim(sim_cfg);
  const auto report = sim.run(tx, ambient, until);
  out.tag_energy_uj = report.detector_energy_uj + report.mcu_energy_uj;
  out.simulated_us = until;

  for (const auto& frame : report.decoded) {
    if (auto data_bits = parse_downlink_payload(frame.payload)) {
      out.delivered = true;
      out.decoded_query = Query::from_bits(*data_bits);
      break;
    }
  }
  if (auto* fx = obs::forensics()) {
    fx->record_attempt(obs::DropStage::kCoreDownlink);
    if (out.delivered) {
      fx->record_decode(obs::DropStage::kCoreDownlink);
    } else {
      // No tag-side frame at all means the energy detector never fired;
      // frames that decoded but failed to parse died on the checksum.
      fx->record_drop(obs::DropStage::kCoreDownlink,
                      report.decoded.empty() ? obs::DropReason::kNoPreamble
                                             : obs::DropReason::kCrcFail);
    }
  }
  return out;
}

UplinkOutcome WiFiBackscatterSystem::receive_uplink(const BitVec& data,
                                                    double bit_rate_bps) {
  UplinkOutcome out;
  out.bit_rate_bps = bit_rate_bps;
  WB_REQUIRE(bit_rate_bps > 0.0, "uplink bit rate must be positive");

  const auto bit_us = TimeUs::from_us(1e6 / bit_rate_bps);
  const BitVec frame = build_uplink_frame(data);

  // Geometry: reader at origin, tag on the x axis, helper beyond it.
  UplinkSimConfig sim_cfg;
  sim_cfg.channel.reader_pos = {0.0, 0.0};
  sim_cfg.channel.tag_pos = {cfg_.tag_reader_distance_m.value(), 0.0};
  sim_cfg.channel.helper_pos = {
      (cfg_.tag_reader_distance_m + cfg_.helper_distance_m).value(), 0.0};
  sim_cfg.channel.multipath = cfg_.multipath;
  sim_cfg.channel.drift = cfg_.drift;
  sim_cfg.channel.tag = cfg_.tag_reflection;
  sim_cfg.nic = cfg_.nic;
  sim_cfg.seed = cfg_.seed ^ (0xc2b2ae35u + round_++);

  const TimeUs frame_start{50'000};
  const TimeUs frame_dur =
      bit_us * static_cast<std::int64_t>(frame.size());
  const TimeUs until = frame_start + frame_dur + TimeUs{50'000};
  out.simulated_us = until;

  sim::RngStream traffic_rng(sim_cfg.seed);
  auto rng = traffic_rng.fork("uplink-traffic");
  const auto timeline = wifi::make_poisson_timeline(
      cfg_.helper_pps, until, wifi::TrafficParams{}, rng);

  tag::Modulator mod(frame, bit_us, frame_start);
  UplinkSim sim(sim_cfg);
  const auto trace = sim.run(timeline, mod);

  reader::UplinkDecoderConfig dec_cfg;
  dec_cfg.source = cfg_.uplink_source;
  if (cfg_.uplink_source == reader::MeasurementSource::kRssi) {
    dec_cfg = reader::rssi_decoder_config(dec_cfg);
  }
  dec_cfg.preamble = uplink_preamble();
  dec_cfg.payload_bits = uplink_payload_bits(data.size());
  dec_cfg.bit_duration_us = bit_us;
  reader::UplinkDecoder decoder(dec_cfg);
  const auto result = decoder.decode(trace);

  auto* fx = obs::forensics();
  if (fx != nullptr) fx->record_attempt(obs::DropStage::kCoreUplink);

  out.sync_found = result.found;
  if (!result.found) {
    // Propagate the decoder's own diagnosis onto the protocol-level
    // stage (the decoder already recorded it against reader.uplink).
    if (fx != nullptr) {
      fx->record_drop(obs::DropStage::kCoreUplink,
                      result.drop_reason.value_or(
                          obs::DropReason::kNoPreamble));
    }
    return out;
  }

  // Oracle BER against what the tag actually sent (frame minus preamble).
  const BitVec sent_payload(frame.begin() + static_cast<long>(
                                                uplink_preamble().size()),
                            frame.end());
  out.bits_total = sent_payload.size();
  out.bit_errors = hamming_distance(sent_payload, result.payload);

  if (auto parsed = parse_uplink_payload(result.payload, data.size())) {
    out.delivered = true;
    out.data = std::move(*parsed);
    if (fx != nullptr) fx->record_decode(obs::DropStage::kCoreUplink);
  } else if (fx != nullptr) {
    // Bits came out of the decoder but the frame checksum rejected them.
    fx->record_drop(obs::DropStage::kCoreUplink, obs::DropReason::kCrcFail);
  }
  return out;
}

bool WiFiBackscatterSystem::exchange_ack(bool tag_acks) {
  reader::AckConfig ack;

  UplinkSimConfig sim_cfg;
  sim_cfg.channel.reader_pos = {0.0, 0.0};
  sim_cfg.channel.tag_pos = {cfg_.tag_reader_distance_m.value(), 0.0};
  sim_cfg.channel.helper_pos = {
      (cfg_.tag_reader_distance_m + cfg_.helper_distance_m).value(), 0.0};
  sim_cfg.channel.multipath = cfg_.multipath;
  sim_cfg.channel.drift = cfg_.drift;
  sim_cfg.channel.tag = cfg_.tag_reflection;
  sim_cfg.nic = cfg_.nic;
  sim_cfg.seed = cfg_.seed ^ (0x85ebca6bu + round_++);

  const TimeUs ack_start{500'000};
  const TimeUs until = ack_start + ack.duration_us() + TimeUs{50'000};
  sim::RngStream traffic_rng(sim_cfg.seed);
  auto rng = traffic_rng.fork("ack-traffic");
  const auto timeline = wifi::make_poisson_timeline(
      cfg_.helper_pps, until, wifi::TrafficParams{}, rng);

  UplinkSim sim(sim_cfg);
  wifi::CaptureTrace trace;
  if (tag_acks) {
    tag::Modulator mod(ack.pattern, ack.chip_duration_us, ack_start);
    trace = sim.run(timeline, mod);
  } else {
    trace = sim.run_idle(timeline);
  }
  return reader::detect_ack(trace, ack, ack_start).detected;
}

QueryOutcome WiFiBackscatterSystem::query(const Query& query,
                                          const BitVec& tag_data) {
  QueryOutcome out;
  auto* m = obs::metrics();
  auto* tr = obs::tracer();
  auto* rec = obs::recorder();
  if (m != nullptr) m->counter("core.system.queries_total").add(1);
  if (rec != nullptr) {
    rec->log(TimeUs{0}, obs::Severity::kInfo, "core.system", "query_start",
             {{"max_attempts",
               static_cast<double>(cfg_.max_query_attempts)}});
  }

  // Rate control: fold the commanded rate into the query frame.
  RateControl rc(RateControlParams{cfg_.packets_per_bit, 0.8});
  const double rate = rc.choose_bit_rate(cfg_.helper_pps);
  Query q = query;
  q.bitrate_code = rc.rate_code(rate);

  // Each protocol leg runs its own sub-simulation with a virtual clock
  // starting at 0; for tracing, `cursor` stitches the legs onto one
  // protocol timeline (ScopedTraceOffset shifts the inner events).
  TimeUs cursor{0};
  const int proto_lane = tr != nullptr ? tr->lane("protocol") : 0;

  // The reader re-transmits its query until it gets a (CRC-valid)
  // response, §4.1 — a retry covers both a missed query at the tag and a
  // response the reader failed to decode.
  for (std::size_t attempt = 1; attempt <= cfg_.max_query_attempts;
       ++attempt) {
    DownlinkOutcome dl;
    {
      obs::ScopedTraceOffset shift(cursor);
      dl = send_downlink(q.to_bits());
    }
    if (tr != nullptr) {
      tr->complete(proto_lane, "downlink_query", "core", cursor,
                   dl.simulated_us,
                   {{"attempt", static_cast<double>(attempt)},
                    {"delivered", dl.delivered ? 1.0 : 0.0}});
    }
    if (rec != nullptr) {
      rec->log(cursor, dl.delivered ? obs::Severity::kInfo
                                    : obs::Severity::kWarn,
               "core.system", "downlink_query",
               {{"attempt", static_cast<double>(attempt)},
                {"delivered", dl.delivered ? 1.0 : 0.0}});
    }
    cursor += dl.simulated_us;
    out.downlink.attempts = attempt;
    out.downlink.delivered = dl.delivered;
    if (dl.decoded_query) out.downlink.decoded_query = dl.decoded_query;
    out.downlink.tag_energy_uj += dl.tag_energy_uj;
    if (cfg_.ack_enabled) {
      // The tag only ACKs a CRC-valid query; the reader retries on a
      // missing ACK without burning a response timeout.
      // exchange_ack simulates [0, ack_start + ack duration + guard)
      // with the defaults below; mirror that window for the timeline.
      const reader::AckConfig ack;
      const TimeUs ack_dur =
          TimeUs{500'000} + ack.duration_us() + TimeUs{50'000};
      bool detected = false;
      {
        obs::ScopedTraceOffset shift(cursor);
        detected = exchange_ack(dl.delivered);
      }
      if (tr != nullptr) {
        tr->complete(proto_lane, "ack_exchange", "core", cursor, ack_dur,
                     {{"detected", detected ? 1.0 : 0.0}});
      }
      if (rec != nullptr) {
        rec->log(cursor, detected ? obs::Severity::kInfo
                                  : obs::Severity::kWarn,
                 "core.system", "ack_exchange",
                 {{"detected", detected ? 1.0 : 0.0}});
      }
      cursor += ack_dur;
      out.downlink.ack_detected = detected;
      if (!detected) continue;
    }
    if (!dl.delivered) continue;

    // The tag obeys the bit rate it decoded.
    const double tag_rate =
        RateControl::rate_from_code(dl.decoded_query->bitrate_code);
    UplinkOutcome ul;
    {
      obs::ScopedTraceOffset shift(cursor);
      ul = receive_uplink(tag_data, tag_rate);
    }
    if (tr != nullptr) {
      tr->complete(proto_lane, "uplink_response", "core", cursor,
                   ul.simulated_us,
                   {{"delivered", ul.delivered ? 1.0 : 0.0},
                    {"bit_rate_bps", ul.bit_rate_bps}});
    }
    if (rec != nullptr) {
      rec->log(cursor, ul.delivered ? obs::Severity::kInfo
                                    : obs::Severity::kWarn,
               "core.system", "uplink_response",
               {{"delivered", ul.delivered ? 1.0 : 0.0},
                {"bit_rate_bps", ul.bit_rate_bps}});
    }
    cursor += ul.simulated_us;
    out.uplink = ul;
    if (out.uplink.delivered) break;
  }

  if (m != nullptr) {
    m->counter("core.system.downlink_attempts_total")
        .add(out.downlink.attempts);
    m->counter("core.system.query_retries_total")
        .add(out.downlink.attempts - 1);
    if (out.success()) m->counter("core.system.query_success_total").add(1);
    m->counter("core.system.uplink_bits_delivered_total")
        .add(out.uplink.bits_total);
    m->counter("core.system.uplink_bit_errors_total")
        .add(out.uplink.bit_errors);
    m->gauge("core.system.tag_energy_uj").add(out.downlink.tag_energy_uj);
  }
  return out;
}

}  // namespace wb::core
