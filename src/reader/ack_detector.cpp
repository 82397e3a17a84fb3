#include "reader/ack_detector.h"

#include <algorithm>
#include <vector>

#include "obs/flight_recorder.h"
#include "reader/decode_workspace.h"
#include "reader/slot_sync.h"
#include "util/check.h"
#include "util/codes.h"

namespace wb::reader {

AckDetection detect_ack(const ConditionedTrace& ct, const AckConfig& cfg,
                        TimeUs expected_start_us) {
  WB_REQUIRE(!cfg.pattern.empty(), "ACK pattern must be non-empty");
  WB_REQUIRE(cfg.chip_duration_us > TimeUs{});
  WB_REQUIRE(cfg.jitter_us >= TimeUs{});
  auto* fx = obs::forensics();
  if (fx != nullptr) fx->record_attempt(obs::DropStage::kAckDetector);
  const auto drop = [&](AckDetection& out, obs::DropReason reason) {
    out.drop_reason = reason;
    if (fx != nullptr) fx->record_drop(obs::DropStage::kAckDetector, reason);
    if (auto* rec = obs::recorder()) {
      rec->log(expected_start_us, obs::Severity::kWarn, "reader.ack",
               obs::to_string(reason), {{"score", out.score}});
    }
  };
  AckDetection out;
  if (ct.num_packets() == 0) {
    drop(out, obs::DropReason::kEmptyTrace);
    return out;
  }

  // The best single stream (g = 1) at each offset of the search region,
  // on the decoders' sync search kernel; a window scores once at least
  // half its chip slots hold a packet.
  const std::size_t nchips = cfg.pattern.size();
  const std::vector<double> tmpl = to_bipolar(cfg.pattern);
  const TimeUs step =
      std::max(cfg.chip_duration_us / 4, TimeUs{1});
  DecodeWorkspace ws;
  bool any_scored = false;
  if (ct.num_streams() > 0) {
    sync_search(ct, tmpl, cfg.chip_duration_us,
                static_cast<double>(nchips / 2), 1,
                expected_start_us - cfg.jitter_us,
                expected_start_us + cfg.jitter_us, step, ws,
                [&](TimeUs tau, double score) {
                  if (ws.bin_filled < nchips / 2 || ws.bin_filled == 0) {
                    return;
                  }
                  any_scored = true;
                  if (score > out.score) {
                    out.score = score;
                    out.at_us = tau;
                  }
                });
  }
  out.detected = out.score >= cfg.threshold;
  if (out.detected) {
    if (fx != nullptr) fx->record_decode(obs::DropStage::kAckDetector);
  } else {
    // Never scoring a window means no chip pattern was ever visible in
    // the search region; scoring below threshold means it was there but
    // too faint to trust.
    drop(out, any_scored ? obs::DropReason::kLowSnr
                         : obs::DropReason::kNoPreamble);
  }
  return out;
}

AckDetection detect_ack(const wifi::CaptureTrace& trace,
                        const AckConfig& cfg, TimeUs expected_start_us) {
  return detect_ack(condition(trace, MeasurementSource::kCsi), cfg,
                    expected_start_us);
}

}  // namespace wb::reader
