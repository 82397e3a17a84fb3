#include "serve/capture_service.h"

#include <cmath>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "runner/indexed_for.h"
#include "util/check.h"
#include "wifi/trace_io.h"

namespace wb::serve {

namespace {

/// Every measurement the decoder may read is finite: RSSI always, CSI when
/// the record carries it.
bool measurements_finite(const wifi::CaptureRecord& rec) {
  for (const double v : rec.rssi_dbm) {
    if (!std::isfinite(v)) return false;
  }
  if (!rec.has_csi) return true;
  for (const auto& antenna : rec.csi) {
    for (const double v : antenna) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

/// The constructor's contract: a config that fails validate() is a
/// caller bug by the time it reaches the service.
const ServeConfig& checked(const ServeConfig& cfg) {
  const Error err = validate(cfg);
  WB_REQUIRE(err.ok(), err.message().c_str());
  return cfg;
}

SessionLimits limits_from(const ServeConfig& cfg) {
  SessionLimits limits;
  // A full ring routed to a single session must fit its staging array.
  limits.pending_capacity = cfg.ring_capacity;
  limits.frame_capacity = cfg.frame_capacity;
  limits.forensics_exemplar_cap = cfg.forensics_exemplar_cap;
  return limits;
}

}  // namespace

Error validate(const ServeConfig& cfg) {
  const auto invalid = [](const char* message) {
    return Error::make(ErrorCode::kInvalidArguments, message);
  };
  if (cfg.max_sessions == 0) {
    return invalid("max_sessions must be at least 1");
  }
  if (cfg.ring_capacity == 0) {
    return invalid("ring_capacity must be at least 1");
  }
  if (cfg.frame_capacity == 0) {
    return invalid("frame_capacity must be at least 1");
  }
  if (cfg.decoder.decoder.bit_duration_us <= TimeUs{}) {
    return invalid("decoder bit_duration_us must be positive");
  }
  return Error::success();
}

// cfg_ is the first member, so the contract runs before any member is
// built from the config.
CaptureService::CaptureService(const ServeConfig& cfg)
    : cfg_(checked(cfg)),
      ring_(cfg.ring_capacity, cfg.policy),
      sessions_(cfg.max_sessions, cfg.decoder, limits_from(cfg)),
      ingest_sink_(cfg.forensics_exemplar_cap),
      dispatch_order_(cfg.max_sessions, nullptr),
      drain_emitted_(cfg.max_sessions, 0) {}

Error CaptureService::attach(std::uint32_t session) {
  if (state_ == ServiceState::kStopped) {
    return Error::make(ErrorCode::kWrongState, "service is stopped");
  }
  Error err = sessions_.attach(session);
  if (!err.ok()) return err;
  ++counters_.attached_total;
  state_ = ServiceState::kServing;
  if (auto* rec = obs::recorder()) {
    rec->log(TimeUs{0}, obs::Severity::kInfo, "serve.service",
             "session_attached", {{"session", static_cast<double>(session)}});
  }
  return Error::success();
}

Error CaptureService::detach(std::uint32_t session) {
  if (state_ == ServiceState::kStopped) {
    return Error::make(ErrorCode::kWrongState, "service is stopped");
  }
  Session* s = sessions_.find(session);
  if (s == nullptr) {
    return Error::make(ErrorCode::kNotFound,
                       "session " + std::to_string(session) +
                           " is not attached");
  }
  // Drain everything still queued for any session (ring items cannot be
  // selectively extracted), then flush this session's decoder tail so no
  // decodable frame is lost.
  dispatch_ring();
  s->flush();
  retire_forensics(session, s->forensics_sink());
  const Error err = sessions_.release(session);
  WB_ENSURE(err.ok(), "release of a found session cannot fail");
  ++counters_.detached_total;
  if (sessions_.active_count() == 0 && state_ == ServiceState::kServing) {
    state_ = ServiceState::kIdle;
  }
  if (auto* rec = obs::recorder()) {
    rec->log(TimeUs{0}, obs::Severity::kInfo, "serve.service",
             "session_detached", {{"session", static_cast<double>(session)}});
  }
  return Error::success();
}

Error CaptureService::submit(std::uint32_t session,
                             const wifi::CaptureRecord& rec) {
  if (state_ == ServiceState::kStopped || state_ == ServiceState::kDraining) {
    return Error::make(ErrorCode::kWrongState,  // wb-analyze: allow(realtime-alloc): reject-path error message; the accept path below is allocation-free (0 allocs/record per BENCH_serve)
                       std::string("submit while ") + to_string(state_));
  }
  Session* s = sessions_.find(session);
  if (s == nullptr) {
    return Error::make(ErrorCode::kNotFound,  // wb-analyze: allow(realtime-alloc): reject-path error message; the accept path below is allocation-free (0 allocs/record per BENCH_serve)
                       "session " + std::to_string(session) +
                           " is not attached");
  }
  // Malformed records are refused here, before the ring: past this point
  // the decoder's contracts (time order, finite measurements) would abort
  // the process instead.
  if (!measurements_finite(rec)) {
    return Error::make(ErrorCode::kInvalidArguments,  // wb-analyze: allow(realtime-alloc): reject-path error message; the accept path below is allocation-free (0 allocs/record per BENCH_serve)
                       "record carries a non-finite CSI or RSSI value");
  }
  if (!s->admit_in_order(rec.timestamp_us)) {
    return Error::make(ErrorCode::kInvalidArguments,  // wb-analyze: allow(realtime-alloc): reject-path error message; the accept path below is allocation-free (0 allocs/record per BENCH_serve)
                       "record is older than the session's last record");
  }
  ++counters_.submitted;
  IngestItem item;
  item.session = session;
  item.record = rec;
  IngestItem evicted;
  for (;;) {
    switch (ring_.push(item, evicted)) {
      case PushOutcome::kAccepted:
        ingest_sink_.record_attempt(obs::DropStage::kIngest);
        ++counters_.accepted;
        return Error::success();
      case PushOutcome::kAcceptedEvicted:
        ingest_sink_.record_attempt(obs::DropStage::kIngest);
        ++counters_.accepted;
        record_backpressure_drop(evicted);
        return Error::success();
      case PushOutcome::kDroppedNewest:
        // The submit succeeded; the *record* was shed by policy. The
        // drop is visible in forensics, not in the error code.
        ingest_sink_.record_attempt(obs::DropStage::kIngest);
        record_backpressure_drop(item);
        return Error::success();
      case PushOutcome::kRejectedFull:
        // Block-producer, virtual-time style: the producer "blocks" by
        // driving the consumer inline, then retries. Deterministic, and
        // guaranteed to make room — the ring is non-empty here.
        ++counters_.blocked;
        dispatch_ring();
        break;
    }
  }
}

std::size_t CaptureService::poll() { return dispatch_ring(); }

std::size_t CaptureService::drain_all() {
  if (state_ == ServiceState::kStopped) return 0;
  const ServiceState resume =
      sessions_.active_count() > 0 ? ServiceState::kServing
                                   : ServiceState::kIdle;
  state_ = ServiceState::kDraining;
  dispatch_ring();
  const std::size_t n =
      sessions_.snapshot_attached(dispatch_order_.data(),
                                  dispatch_order_.size());
  if (cfg_.dispatch_threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      drain_emitted_[i] = dispatch_order_[i]->flush();
    }
  } else {
    runner::for_each_index(cfg_.dispatch_threads, n, [&](std::size_t i) {
      drain_emitted_[i] = dispatch_order_[i]->flush();
    });
  }
  std::size_t frames = 0;
  for (std::size_t i = 0; i < n; ++i) frames += drain_emitted_[i];
  state_ = resume;
  return frames;
}

Error CaptureService::stop() {
  if (state_ == ServiceState::kStopped) return Error::success();
  drain_all();
  const std::size_t n =
      sessions_.snapshot_attached(dispatch_order_.data(),
                                  dispatch_order_.size());
  for (std::size_t i = 0; i < n; ++i) {
    Session* s = dispatch_order_[i];
    retire_forensics(s->id(), s->forensics_sink());
    const Error err = sessions_.release(s->id());
    WB_ENSURE(err.ok(), "release of an attached session cannot fail");
    ++counters_.detached_total;
  }
  state_ = ServiceState::kStopped;
  return Error::success();
}

std::size_t CaptureService::dispatch_ring() {
  IngestItem item;
  std::size_t routed = 0;
  while (ring_.pop(item)) {
    Session* s = sessions_.find(item.session);
    // submit() validates attachment and detach() drains the ring first,
    // so a ring item always targets a live session.
    WB_INVARIANT(s != nullptr, "ring item targets a detached session");
    ingest_sink_.record_decode(obs::DropStage::kIngest);
    s->enqueue(item.record);
    ++routed;
  }
  if (routed == 0) return 0;
  counters_.routed += routed;
  ++counters_.dispatch_batches;
  const std::size_t n =
      sessions_.snapshot_attached(dispatch_order_.data(),
                                  dispatch_order_.size());
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (dispatch_order_[i]->pending() > 0) {
      dispatch_order_[m] = dispatch_order_[i];
      ++m;
    }
  }
  if (cfg_.dispatch_threads <= 1 || m <= 1) {
    // Inline, ascending session id — the allocation-free serving path.
    for (std::size_t i = 0; i < m; ++i) {
      dispatch_order_[i]->dispatch_pending();
    }
  } else {
    // Each worker owns one session; per-session outputs are identical
    // to the inline path by construction (private sinks, suppressed
    // thread-ambient observability).
    runner::for_each_index(  // wb-analyze: allow(realtime-blocking): opted-in worker fan-out (dispatch_threads > 1) synchronizes at batch boundaries by design; the default single-driver path above never enters the pool
        cfg_.dispatch_threads, m,
        [this](std::size_t i) { dispatch_order_[i]->dispatch_pending(); });
  }
  return routed;
}

void CaptureService::record_backpressure_drop(const IngestItem& victim) {
  ++counters_.dropped_backpressure;
  ingest_sink_.record_drop(obs::DropStage::kIngest,
                           obs::DropReason::kBackpressure);
  if (ingest_sink_.wants_exemplar(obs::DropStage::kIngest,
                                  obs::DropReason::kBackpressure)) {
    wifi::CaptureTrace one(1);
    one[0] = victim.record;
    ingest_sink_.add_exemplar(obs::DropStage::kIngest, obs::DropReason::kBackpressure,  // wb-analyze: allow(realtime-alloc): exemplar serialization is wants_exemplar-gated to the first exemplar_cap backpressure drops — cold by construction
                              wifi::capture_csv_string(one));
  }
  if (auto* rec = obs::recorder()) {
    rec->log(victim.record.timestamp_us, obs::Severity::kWarn, "serve.ingest",
             "backpressure_drop",
             {{"session", static_cast<double>(victim.session)}});
  }
}

void CaptureService::retire_forensics(std::uint32_t id,
                                      const obs::ForensicsSink& sink) {
  auto it = retired_.find(id);
  if (it != retired_.end()) {
    it->second->merge_from(sink);
    return;
  }
  if (retired_.size() < kRetiredForensicsCap) {
    auto fresh =
        std::make_unique<obs::ForensicsSink>(cfg_.forensics_exemplar_cap);
    fresh->merge_from(sink);
    retired_.emplace(id, std::move(fresh));
    return;
  }
  if (retired_overflow_ == nullptr) {
    retired_overflow_ =
        std::make_unique<obs::ForensicsSink>(cfg_.forensics_exemplar_cap);
  }
  retired_overflow_->merge_from(sink);
}

std::uint64_t CaptureService::frames_total() const noexcept {
  std::uint64_t frames = 0;
  std::vector<Session*> live(sessions_.max_sessions(), nullptr);
  const std::size_t n = sessions_.snapshot_attached(live.data(), live.size());
  for (std::size_t i = 0; i < n; ++i) frames += live[i]->frames_total();
  return frames;
}

std::vector<std::pair<std::string, std::string>> CaptureService::properties()
    const {
  return {
      {"dispatch.batches_total", std::to_string(counters_.dispatch_batches)},
      {"dispatch.records_total", std::to_string(counters_.routed)},
      {"ingest.accepted_total", std::to_string(counters_.accepted)},
      {"ingest.blocked_total", std::to_string(counters_.blocked)},
      {"ingest.dropped_backpressure_total",
       std::to_string(counters_.dropped_backpressure)},
      {"ingest.submitted_total", std::to_string(counters_.submitted)},
      {"ring.capacity", std::to_string(ring_.capacity())},
      {"ring.depth", std::to_string(ring_.size())},
      {"ring.depth_peak", std::to_string(ring_.depth_peak())},
      {"ring.policy", to_string(cfg_.policy)},
      {"service.state", to_string(state_)},
      {"sessions.active", std::to_string(sessions_.active_count())},
      {"sessions.attached_total", std::to_string(counters_.attached_total)},
      {"sessions.detached_total", std::to_string(counters_.detached_total)},
      {"sessions.frames_total", std::to_string(frames_total())},
      {"sessions.max", std::to_string(sessions_.max_sessions())},
  };
}

void CaptureService::publish_metrics() const {
  auto* m = obs::metrics();
  if (m == nullptr) return;
  m->counter("serve.ingest.submitted_total").add(counters_.submitted);
  m->counter("serve.ingest.accepted_total").add(counters_.accepted);
  m->counter("serve.ingest.blocked_total").add(counters_.blocked);
  m->counter("serve.ingest.dropped_backpressure_total")
      .add(counters_.dropped_backpressure);
  m->counter("serve.dispatch.records_total").add(counters_.routed);
  m->counter("serve.dispatch.batches_total").add(counters_.dispatch_batches);
  m->counter("serve.session.frames_total").add(frames_total());
  m->gauge("serve.ring.depth_peak_count")
      .max_of(static_cast<double>(ring_.depth_peak()));
  m->gauge("serve.session.active_count")
      .set(static_cast<double>(sessions_.active_count()));
}

void CaptureService::merge_forensics_into(obs::ForensicsSink& out) const {
  out.merge_from(ingest_sink_);
  std::vector<Session*> live(sessions_.max_sessions(), nullptr);
  const std::size_t n = sessions_.snapshot_attached(live.data(), live.size());
  std::size_t i = 0;
  auto it = retired_.begin();
  while (it != retired_.end() || i < n) {
    const bool take_retired =
        it != retired_.end() && (i >= n || it->first <= live[i]->id());
    if (take_retired) {
      out.merge_from(*it->second);
      ++it;
    } else {
      out.merge_from(live[i]->forensics_sink());
      ++i;
    }
  }
  if (retired_overflow_ != nullptr) out.merge_from(*retired_overflow_);
}

std::string CaptureService::forensics_jsonl() const {
  obs::ForensicsSink merged(cfg_.forensics_exemplar_cap);
  merge_forensics_into(merged);
  return merged.to_jsonl();
}

}  // namespace wb::serve
