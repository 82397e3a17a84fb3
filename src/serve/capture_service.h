// CaptureService: the live-capture front end (DESIGN.md §14). One
// externally synchronised driver thread submits (session, record) pairs;
// the service admits them through a preallocated IngestRing with an
// explicit backpressure policy, routes them to per-session decoders, and
// dispatches sessions — inline or across deterministic worker threads —
// with byte-identical outputs either way.
//
// Observability follows the repo's ledger discipline: every record
// admitted to the ring is a DropStage::kIngest attempt; leaving the ring
// into a session is the stage's "decode"; backpressure victims are drops
// (DropReason::kBackpressure). After drain_all() the ingest ledger
// reconciles exactly: attempts == decodes + drops.
//
// Threading contract: all public methods are called from one driver
// thread. Parallelism exists only inside poll()/drain_all(), where
// attached sessions dispatch on runner::for_each_index — each worker
// touches a single session's state and private sink, so there is no
// internal locking and no blocking wait anywhere in the service.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/forensics.h"
#include "reader/streaming_decoder.h"
#include "serve/error.h"
#include "serve/ingest_ring.h"
#include "serve/session.h"
#include "util/check.h"
#include "wifi/capture.h"

namespace wb::serve {

/// Detached sessions whose forensics sinks are retained individually;
/// sinks beyond this merge into one overflow sink so churny workloads
/// stay bounded.
inline constexpr std::size_t kRetiredForensicsCap = 64;

struct ServeConfig {
  /// Ingest ring slots (also the per-session staging bound).
  std::size_t ring_capacity = 256;
  BackpressurePolicy policy = BackpressurePolicy::kBlockProducer;

  /// Session slots; attach beyond this fails with kCapacity.
  std::size_t max_sessions = 8;

  /// Worker threads for session dispatch. <=1 dispatches inline (in
  /// ascending session id order); more threads split sessions across
  /// workers with identical per-session results.
  unsigned dispatch_threads = 1;

  /// Decoder configuration shared by every session.
  reader::StreamingDecoderConfig decoder{};

  /// Decoded frames retained per session (ring; oldest overwritten).
  std::size_t frame_capacity = 1024;

  /// Exemplars per (stage, reason) in each session's forensics sink.
  std::size_t forensics_exemplar_cap = obs::ForensicsSink::kDefaultExemplarCap;
};

/// Checks a configuration before a CaptureService is built from it:
/// kInvalidArguments, with a message naming the field, for a value the
/// service cannot run with (no session slots, an empty ingest or frame
/// ring, a non-positive decoder bit duration). The constructor's contract
/// calls the same function, so a caller holding values from outside the
/// process (CLI flags, a config file) checks here instead of aborting.
Error validate(const ServeConfig& cfg);

enum class ServiceState : std::uint8_t {
  kIdle,      ///< no attached sessions
  kServing,   ///< at least one attached session
  kDraining,  ///< drain_all in progress (transient)
  kStopped,   ///< terminal; every further mutation fails kWrongState
};

/// Stable snake-case token (properties/export surface).
inline const char* to_string(ServiceState state) noexcept {
  switch (state) {
    case ServiceState::kIdle: return "idle";
    case ServiceState::kServing: return "serving";
    case ServiceState::kDraining: return "draining";
    case ServiceState::kStopped: return "stopped";
  }
  return "unknown";
}

class CaptureService {
 public:
  explicit CaptureService(const ServeConfig& cfg);

  CaptureService(const CaptureService&) = delete;
  CaptureService& operator=(const CaptureService&) = delete;

  // ---- control plane ----

  /// Binds a new session id. kAlreadyExists / kCapacity / kWrongState.
  Error attach(std::uint32_t session);

  /// Drains everything queued for `session` (ring + staging + decoder
  /// tail), retires its forensics sink, and frees the slot.
  Error detach(std::uint32_t session);

  /// Drains the ring and every session's decoder tail; sessions stay
  /// attached. Returns frames emitted. Flush-verified: after this, no
  /// decodable frame remains buffered anywhere in the service.
  std::size_t drain_all();

  /// drain_all + detach every session + terminal kStopped. Idempotent.
  Error stop();

  // ---- data plane ----

  /// Offers one record for `session`. Under kBlockProducer a full ring
  /// "blocks" deterministically: the service runs the dispatch loop
  /// inline and retries, so submit never fails for capacity and no
  /// record is lost. Under the drop policies a full ring sheds load per
  /// policy (recorded in forensics) and submit still succeeds.
  /// kNotFound / kWrongState for invalid targets; kInvalidArguments, with
  /// nothing admitted, for a record older than the session's last one or
  /// carrying a non-finite CSI/RSSI value.
  WB_REALTIME Error submit(std::uint32_t session,
                           const wifi::CaptureRecord& rec);

  /// Drains the ring into sessions and dispatches them; returns records
  /// routed. Call at any cadence; submit() under backpressure calls it
  /// implicitly.
  WB_REALTIME std::size_t poll();

  // ---- introspection ----

  ServiceState state() const noexcept { return state_; }
  const ServeConfig& config() const noexcept { return cfg_; }
  /// Attached session by id; nullptr if none.
  const Session* find(std::uint32_t session) const noexcept {
    return sessions_.find(session);
  }
  std::size_t active_sessions() const noexcept {
    return sessions_.active_count();
  }
  std::size_t ring_depth() const noexcept { return ring_.size(); }
  std::size_t ring_depth_peak() const noexcept { return ring_.depth_peak(); }

  /// Monotonic service counters (never reset).
  struct Counters {
    std::uint64_t submitted = 0;     ///< submit() calls that reached the ring
    std::uint64_t accepted = 0;      ///< records admitted to the ring
    std::uint64_t blocked = 0;       ///< full-ring retries (kBlockProducer)
    std::uint64_t dropped_backpressure = 0;  ///< evicted or refused records
    std::uint64_t routed = 0;        ///< records moved ring -> session
    std::uint64_t dispatch_batches = 0;  ///< poll()s that routed >= 1 record
    std::uint64_t attached_total = 0;
    std::uint64_t detached_total = 0;
  };
  const Counters& counters() const noexcept { return counters_; }

  /// Total frames emitted across currently attached sessions.
  std::uint64_t frames_total() const noexcept;

  /// Shill-style property snapshot: sorted (key, value) pairs capturing
  /// configuration, state, and counters. Stable keys; values are decimal
  /// numbers or snake_case tokens.
  std::vector<std::pair<std::string, std::string>> properties() const;

  /// Adds service counters to the thread's MetricsRegistry (no-op when
  /// none is installed). Additive — call once per finished run.
  void publish_metrics() const;

  /// Merges the service's forensics into `out` in deterministic order:
  /// the ingest ledger, then per-session sinks in ascending session id
  /// (a retired sink before a live one with the same id), then the
  /// retired-overflow sink.
  void merge_forensics_into(obs::ForensicsSink& out) const;

  /// The merged forensics as JSONL (convenience over merge_forensics_into
  /// for exports and byte-compare tests).
  std::string forensics_jsonl() const;

 private:
  /// Pops every ring item into its session's staging, then dispatches
  /// sessions with pending records (ascending id; parallel when
  /// configured). Returns records routed.
  std::size_t dispatch_ring();

  /// Ledger + exemplar + counter updates for one backpressure victim.
  void record_backpressure_drop(const IngestItem& victim);

  /// Moves a detaching session's sink into retired_ / the overflow sink.
  void retire_forensics(std::uint32_t id, const obs::ForensicsSink& sink);

  ServeConfig cfg_;
  IngestRing ring_;
  SessionManager sessions_;
  obs::ForensicsSink ingest_sink_;  ///< kIngest ledger + backpressure drops
  /// Sinks of detached sessions, keyed by session id (merged in key
  /// order at export). Re-detaching an id merges into its entry.
  std::map<std::uint32_t, std::unique_ptr<obs::ForensicsSink>> retired_;
  std::unique_ptr<obs::ForensicsSink> retired_overflow_;
  std::vector<Session*> dispatch_order_;  ///< preallocated scratch
  std::vector<std::size_t> drain_emitted_;  ///< preallocated scratch
  ServiceState state_ = ServiceState::kIdle;
  Counters counters_;
};

}  // namespace wb::serve
