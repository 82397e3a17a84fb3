#include "serve/session.h"

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace wb::serve {

Session::Session(const reader::StreamingDecoderConfig& decoder_cfg,
                 const SessionLimits& limits)
    : decoder_(decoder_cfg),
      limits_(limits),
      pending_(limits.pending_capacity),
      frames_(limits.frame_capacity),
      sink_(std::make_unique<obs::ForensicsSink>(
          limits.forensics_exemplar_cap)) {
  WB_REQUIRE(limits.pending_capacity > 0,
             "session pending capacity must be positive");
  WB_REQUIRE(limits.frame_capacity > 0,
             "session frame capacity must be positive");
}

void Session::attach(std::uint32_t id) {
  WB_REQUIRE(state_ == SessionState::kDetached,
             "attach on a slot that is not free");
  id_ = id;
  state_ = SessionState::kAttached;
  pending_count_ = 0;
  last_submitted_.reset();
  frames_total_ = 0;
  records_dispatched_ = 0;
  decoder_.reset();  // keeps warmed buffer/workspace capacity
  // Fresh ledger per stream; the previous sink was retired by the
  // service before release().
  sink_ = std::make_unique<obs::ForensicsSink>(limits_.forensics_exemplar_cap);
}

void Session::detach() {
  WB_REQUIRE(state_ != SessionState::kDetached, "detach on a free slot");
  WB_REQUIRE(pending_count_ == 0, "detach with undispatched records");
  state_ = SessionState::kDetached;
}

void Session::enqueue(const wifi::CaptureRecord& rec) {
  WB_REQUIRE(state_ == SessionState::kAttached ||
                 state_ == SessionState::kActive,
             "enqueue on a session that is not serving");
  WB_REQUIRE(pending_count_ < pending_.size(),
             "session staging overflow: dispatch must run between "
             "ring drains");
  pending_[pending_count_] = rec;
  ++pending_count_;
}

bool Session::admit_in_order(TimeUs t_us) noexcept {
  if (last_submitted_ && t_us < *last_submitted_) return false;
  last_submitted_ = t_us;
  return true;
}

std::size_t Session::dispatch_pending() {
  if (pending_count_ == 0) return 0;
  // The session's own observability environment: frames/drops land in
  // the private sink; caller-thread metrics and flight recorder are
  // suppressed so an inline (threads=1) dispatch has exactly the side
  // effects of a worker-thread one.
  const obs::ScopedForensics fx(*sink_);
  const obs::ScopedFlightRecorder no_rec(nullptr);
  const obs::ScopedMetrics no_metrics(
      static_cast<obs::MetricsRegistry*>(nullptr));
  std::size_t frames = 0;
  for (std::size_t i = 0; i < pending_count_; ++i) {
    frames += decoder_.push(pending_[i], *this);
  }
  records_dispatched_ += pending_count_;
  pending_count_ = 0;
  state_ = SessionState::kActive;
  return frames;
}

std::size_t Session::flush() {
  WB_REQUIRE(state_ == SessionState::kAttached ||
                 state_ == SessionState::kActive,
             "flush on a session that is not serving");
  std::size_t frames = dispatch_pending();
  state_ = SessionState::kDraining;
  {
    const obs::ScopedForensics fx(*sink_);
    const obs::ScopedFlightRecorder no_rec(nullptr);
    const obs::ScopedMetrics no_metrics(
        static_cast<obs::MetricsRegistry*>(nullptr));
    frames += decoder_.flush(*this);
  }
  state_ = records_dispatched_ > 0 ? SessionState::kActive
                                   : SessionState::kAttached;
  return frames;
}

std::size_t Session::frames_kept() const noexcept {
  return frames_total_ < frames_.size()
             ? static_cast<std::size_t>(frames_total_)
             : frames_.size();
}

const DecodedFrame& Session::frame(std::size_t i) const {
  WB_REQUIRE(i < frames_kept(), "frame index out of range");
  const std::uint64_t oldest = frames_total_ - frames_kept();
  return frames_[(oldest + i) % frames_.size()];
}

std::string Session::frames_jsonl() const {
  std::string out;
  for (std::size_t i = 0; i < frames_kept(); ++i) {
    const DecodedFrame& f = frame(i);
    out += "{\"type\":\"frame\",\"session\":";
    out += std::to_string(id_);
    out += ",\"ordinal\":";
    out += std::to_string(f.ordinal);
    out += ",\"start_us\":";
    out += std::to_string(f.start_us.ticks());
    out += ",\"sync_score\":";
    out += obs::json_number(f.sync_score);
    out += ",\"packets_used\":";
    out += std::to_string(f.packets_used);
    out += ",\"payload\":\"";
    for (const auto bit : f.payload) out += bit != 0 ? '1' : '0';
    out += "\"}\n";
  }
  return out;
}

void Session::on_frame(const reader::UplinkDecodeResult& frame) {
  DecodedFrame& slot = frames_[frames_total_ % frames_.size()];
  slot.ordinal = frames_total_;
  slot.start_us = frame.start_us;
  slot.sync_score = frame.sync_score;
  slot.packets_used = frame.packets_used;
  slot.payload = frame.payload;  // copy-assign: slot capacity is reused
  ++frames_total_;
}

SessionManager::SessionManager(
    std::size_t max_sessions,
    const reader::StreamingDecoderConfig& decoder_cfg,
    const SessionLimits& limits)
    : slots_(max_sessions) {
  WB_REQUIRE(max_sessions > 0, "session pool must hold at least one slot");
  for (auto& slot : slots_) {
    slot = std::make_unique<Session>(decoder_cfg, limits);
  }
}

Error SessionManager::attach(std::uint32_t id) {
  Session* free_slot = nullptr;
  for (auto& slot : slots_) {
    if (slot->state() != SessionState::kDetached) {
      if (slot->id() == id) {
        return Error::make(ErrorCode::kAlreadyExists,
                           "session " + std::to_string(id) +
                               " is already attached");
      }
      continue;
    }
    if (free_slot == nullptr) free_slot = slot.get();
  }
  if (free_slot == nullptr) {
    return Error::make(ErrorCode::kCapacity,
                       "all " + std::to_string(slots_.size()) +
                           " session slots are busy");
  }
  free_slot->attach(id);
  return Error::success();
}

Error SessionManager::release(std::uint32_t id) {
  Session* s = find(id);
  if (s == nullptr) {
    return Error::make(ErrorCode::kNotFound,
                       "session " + std::to_string(id) + " is not attached");
  }
  s->detach();
  return Error::success();
}

Session* SessionManager::find(std::uint32_t id) noexcept {
  for (auto& slot : slots_) {
    if (slot->state() != SessionState::kDetached && slot->id() == id) {
      return slot.get();
    }
  }
  return nullptr;
}

const Session* SessionManager::find(std::uint32_t id) const noexcept {
  for (const auto& slot : slots_) {
    if (slot->state() != SessionState::kDetached && slot->id() == id) {
      return slot.get();
    }
  }
  return nullptr;
}

std::size_t SessionManager::active_count() const noexcept {
  std::size_t n = 0;
  for (const auto& slot : slots_) {
    if (slot->state() != SessionState::kDetached) ++n;
  }
  return n;
}

std::size_t SessionManager::snapshot_attached(Session** out,
                                              std::size_t cap) const {
  WB_REQUIRE(cap >= slots_.size(),
             "snapshot buffer smaller than the session pool");
  std::size_t n = 0;
  for (const auto& slot : slots_) {
    if (slot->state() == SessionState::kDetached) continue;
    // Insertion sort by id: the pool is small and mostly ordered.
    std::size_t pos = n;
    while (pos > 0 && out[pos - 1]->id() > slot->id()) {
      out[pos] = out[pos - 1];
      --pos;
    }
    out[pos] = slot.get();
    ++n;
  }
  return n;
}

}  // namespace wb::serve
