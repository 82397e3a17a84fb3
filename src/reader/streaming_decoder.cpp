#include "reader/streaming_decoder.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "obs/forensics.h"
#include "util/check.h"

namespace wb::reader {
namespace {

UplinkDecoderConfig make_decoder_config(const StreamingDecoderConfig& cfg) {
  WB_REQUIRE(!cfg.decoder.search_from && !cfg.decoder.search_to,
             "the streaming wrapper manages the search window");
  WB_REQUIRE(cfg.history_us >= cfg.decoder.movavg_window_us,
             "history_us must cover the conditioning window "
             "(decoder.movavg_window_us): a shorter history trims records "
             "the moving-average filter still needs");
  UplinkDecoderConfig dec_cfg = cfg.decoder;
  dec_cfg.sync_threshold = cfg.sync_threshold;
  return dec_cfg;
}

}  // namespace

StreamingUplinkDecoder::StreamingUplinkDecoder(StreamingDecoderConfig cfg)
    : cfg_(std::move(cfg)),
      dec_(make_decoder_config(cfg_)),
      cond_(cfg_.decoder.source, cfg_.decoder.movavg_window_us) {}

void StreamingUplinkDecoder::reset() {
  buffer_.clear();  // keeps capacity: the next session reuses the storage
  consumed_until_ = TimeUs{0};
  next_scan_at_ = TimeUs{0};
  frames_emitted_ = 0;
  scans_ = 0;
  cond_.reset();
  drained_reported_ = false;
}

bool StreamingUplinkDecoder::scan(TimeUs search_to_us, FrameSink& sink) {
  dec_.set_search_window(consumed_until_, search_to_us);
  dec_.decode_into(buffer_, ws_, scratch_, &cond_);
  ++scans_;
  if (!scratch_.found) return false;
  consumed_until_ = scratch_.start_us + cfg_.decoder.frame_duration_us();
  ++frames_emitted_;
  if (auto* fx = obs::forensics()) {
    fx->record_attempt(obs::DropStage::kStreamingDecoder);
    fx->record_decode(obs::DropStage::kStreamingDecoder);
  }
  sink.on_frame(scratch_);
  return true;
}

void StreamingUplinkDecoder::trim_history() {
  // Trim history that no future frame needs: anything older than the
  // conditioning window behind the consumed point.
  const TimeUs keep_from =
      consumed_until_ > cfg_.history_us
          ? consumed_until_ - cfg_.history_us
          : TimeUs{};
  const auto first_kept = std::lower_bound(
      buffer_.begin(), buffer_.end(), keep_from,
      [](const wifi::CaptureRecord& r, TimeUs t) {
        return r.timestamp_us < t;
      });
  if (first_kept != buffer_.begin()) {
    cond_.trim(buffer_,
               static_cast<std::size_t>(first_kept - buffer_.begin()));
    buffer_.erase(buffer_.begin(), first_kept);
  }
}

std::size_t StreamingUplinkDecoder::push(const wifi::CaptureRecord& rec,
                                         FrameSink& sink) {
  WB_REQUIRE(buffer_.empty() ||
                 rec.timestamp_us >= buffer_.back().timestamp_us,
             "capture records must arrive in time order");
  buffer_.push_back(rec);  // wb-analyze: allow(realtime-alloc): growth is bounded by trim_history() to the history_us window, so steady state reuses capacity — pinned at 0 allocs/record by BENCH_serve
  drained_reported_ = false;  // new data: the next flush() drains afresh

  const TimeUs now = rec.timestamp_us;
  const TimeUs frame_dur = cfg_.decoder.frame_duration_us();

  // Scan when enough new air time has accumulated: the newest possible
  // frame start we can fully decode is now - frame_dur.
  if (now < next_scan_at_ || now - consumed_until_ < frame_dur) {
    return 0;
  }
  next_scan_at_ = now + frame_dur / kScansPerFrame;

  const TimeUs search_to = now - frame_dur;
  if (search_to < consumed_until_) return 0;

  std::size_t emitted = 0;
  if (scan(search_to, sink)) {
    ++emitted;
    // A second frame could already be waiting; scan again promptly.
    next_scan_at_ = now;
  } else {
    // The scanned region is clean; never re-scan it (keeps the buffer and
    // the per-scan cost bounded on quiet air).
    consumed_until_ = search_to;
  }

  trim_history();
  return emitted;
}

std::size_t StreamingUplinkDecoder::flush(FrameSink& sink) {
  if (buffer_.empty()) return 0;
  const TimeUs frame_dur = cfg_.decoder.frame_duration_us();
  // The latest start whose frame is fully contained in the buffer; a frame
  // whose tail lands exactly on the final record is included, one that
  // extends past it is not (its last bits were never observed).
  const TimeUs search_to = buffer_.back().timestamp_us - frame_dur;
  std::size_t emitted = 0;
  while (search_to >= consumed_until_ && scan(search_to, sink)) {
    ++emitted;
  }
  consumed_until_ = std::max(consumed_until_, search_to);

  // Whatever still sits past the consumed point can never be decoded —
  // a frame starting there would extend beyond the last observed record.
  // Report the discarded partial tail once per drained session.
  if (!drained_reported_ &&
      buffer_.back().timestamp_us > consumed_until_) {
    drained_reported_ = true;
    if (auto* fx = obs::forensics()) {
      fx->record_attempt(obs::DropStage::kStreamingDecoder);
      fx->record_drop(obs::DropStage::kStreamingDecoder,
                      obs::DropReason::kDrainedIncomplete);
    }
    if (auto* rec = obs::recorder()) {
      rec->log(consumed_until_, obs::Severity::kInfo, "reader.streaming",
               "drained_incomplete",
               {{"tail_us", static_cast<double>(
                     (buffer_.back().timestamp_us - consumed_until_)
                         .ticks())}});
    }
  }
  trim_history();
  return emitted;
}

}  // namespace wb::reader
