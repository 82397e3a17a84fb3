// Per-stream serving state: a Session owns one StreamingUplinkDecoder,
// bounded staging and result storage, and a private forensics sink, so
// any number of concurrent backscatter streams decode independently with
// byte-identical per-session output regardless of how the service
// interleaves or parallelises them.
//
// Lifecycle (driven by SessionManager / CaptureService):
//
//   kDetached --attach()--> kAttached --first dispatch--> kActive
//      ^                                                     |
//      |                   flush()  <---- begin_drain() ------
//      +---- detach() ---- (kDraining)          (drain-and-continue
//                                                returns to kActive)
//
// Memory is bounded by SessionLimits at attach time: the pending staging
// array and the kept-frames ring are preallocated and written by index —
// nothing in a session grows with stream length, and after the first
// wrap of a payload slot the frame-copy path stops allocating (the
// BENCH_serve gate measures this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/forensics.h"
#include "reader/streaming_decoder.h"
#include "serve/error.h"
#include "util/bits.h"
#include "util/units.h"
#include "wifi/capture.h"

namespace wb::serve {

enum class SessionState : std::uint8_t {
  kDetached,  ///< slot free; no stream bound
  kAttached,  ///< stream bound; no record dispatched yet
  kActive,    ///< records flowing through the decoder
  kDraining,  ///< flush in progress (transient)
};

/// Stable snake-case token (properties/export surface).
inline const char* to_string(SessionState state) noexcept {
  switch (state) {
    case SessionState::kDetached: return "detached";
    case SessionState::kAttached: return "attached";
    case SessionState::kActive: return "active";
    case SessionState::kDraining: return "draining";
  }
  return "unknown";
}

/// Bounded copy of one decoded frame (the streaming decoder's result is
/// scratch — sessions copy what the serving layer reports and nothing
/// more).
struct DecodedFrame {
  std::uint64_t ordinal = 0;  ///< 0-based emit index within the session
  TimeUs start_us{0};
  double sync_score = 0.0;
  std::size_t packets_used = 0;
  BitVec payload;
};

/// Per-session memory bounds, fixed at SessionManager construction.
struct SessionLimits {
  /// Staged records awaiting dispatch. The service sizes this to the
  /// ingest ring capacity: a full ring routed to one session still fits.
  std::size_t pending_capacity = 256;

  /// Kept decoded frames (ring; oldest overwritten once full).
  std::size_t frame_capacity = 1024;

  /// Raw-trace exemplars per (stage, reason) in the session's sink.
  std::size_t forensics_exemplar_cap = obs::ForensicsSink::kDefaultExemplarCap;
};

class Session final : public reader::FrameSink {
 public:
  Session(const reader::StreamingDecoderConfig& decoder_cfg,
          const SessionLimits& limits);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- lifecycle (SessionManager only) ----

  /// kDetached -> kAttached: binds `id`, resets the decoder (keeping its
  /// warmed capacity) and starts a fresh forensics sink.
  void attach(std::uint32_t id);

  /// -> kDetached: the slot is reusable. The caller is responsible for
  /// flushing and retiring the forensics sink first.
  void detach();

  std::uint32_t id() const noexcept { return id_; }
  SessionState state() const noexcept { return state_; }

  // ---- data path ----

  /// Stage one record for the next dispatch. Bounded: staging more than
  /// pending_capacity records without a dispatch is a contract violation
  /// (the service's ring sizing makes it unreachable).
  void enqueue(const wifi::CaptureRecord& rec);

  /// Records staged and not yet dispatched.
  std::size_t pending() const noexcept { return pending_count_; }

  /// Submit-time order check: false for a record older than the last one
  /// admitted since attach (the streaming decoder requires time order);
  /// otherwise remembers `t_us` as the newest and returns true.
  bool admit_in_order(TimeUs t_us) noexcept;

  /// Pushes every staged record through the streaming decoder; returns
  /// frames emitted. Installs the session's own observability environment
  /// (its forensics sink; caller-thread metrics and flight recorder
  /// suppressed) so decode side effects are identical whether this runs
  /// inline or on a worker thread. Safe to call concurrently with other
  /// sessions' dispatches — all state touched is per-session.
  std::size_t dispatch_pending();

  /// Drains staged records, then flushes the streaming decoder (final
  /// scan over the buffered tail). Returns frames emitted. The session
  /// stays attached (kActive) and may keep receiving records.
  std::size_t flush();

  // ---- results ----

  /// Total frames ever emitted by this session since attach.
  std::uint64_t frames_total() const noexcept { return frames_total_; }
  /// Frames currently retained (<= frame_capacity).
  std::size_t frames_kept() const noexcept;
  /// i-th oldest retained frame, i < frames_kept().
  const DecodedFrame& frame(std::size_t i) const;
  /// The streaming decoder (its scan counters restart at attach).
  const reader::StreamingUplinkDecoder& decoder() const noexcept {
    return decoder_;
  }
  /// Records ever dispatched through the decoder since attach.
  std::uint64_t records_dispatched() const noexcept {
    return records_dispatched_;
  }

  /// The session's private sink (ledger + drops for its decode stages).
  const obs::ForensicsSink& forensics_sink() const { return *sink_; }

  /// Deterministic per-session decode output: one JSON object per
  /// retained frame, oldest first —
  /// {"type":"frame","session":S,"ordinal":N,"start_us":T,
  ///  "sync_score":X,"packets_used":P,"payload":"0101..."}
  std::string frames_jsonl() const;

  /// reader::FrameSink: copies the scratch result into the frame ring.
  void on_frame(const reader::UplinkDecodeResult& frame) override;

 private:
  reader::StreamingUplinkDecoder decoder_;
  SessionLimits limits_;
  std::uint32_t id_ = 0;
  SessionState state_ = SessionState::kDetached;

  std::vector<wifi::CaptureRecord> pending_;  ///< preallocated staging
  std::size_t pending_count_ = 0;
  std::optional<TimeUs> last_submitted_;  ///< newest admitted timestamp
  std::vector<DecodedFrame> frames_;  ///< preallocated ring
  std::uint64_t frames_total_ = 0;
  std::uint64_t records_dispatched_ = 0;
  std::unique_ptr<obs::ForensicsSink> sink_;  ///< fresh per attach
};

/// Fixed pool of session slots with id-based lookup. Slots (and their
/// decoders) are constructed once; attach/detach cycles reuse them, so
/// repeated sessions cost no steady-state allocation beyond the fresh
/// forensics sink per attach.
class SessionManager {
 public:
  SessionManager(std::size_t max_sessions,
                 const reader::StreamingDecoderConfig& decoder_cfg,
                 const SessionLimits& limits);

  /// Binds `id` to a free slot. Fails with kAlreadyExists / kCapacity.
  Error attach(std::uint32_t id);

  /// Marks `id` detached (slot reusable). Fails with kNotFound. The
  /// caller must have flushed the session first.
  Error release(std::uint32_t id);

  /// The attached session with this id; nullptr if none.
  Session* find(std::uint32_t id) noexcept;
  const Session* find(std::uint32_t id) const noexcept;

  std::size_t max_sessions() const noexcept { return slots_.size(); }
  /// Currently attached sessions.
  std::size_t active_count() const noexcept;

  /// Writes pointers to all attached sessions into out[0..cap) in
  /// ascending id order; returns how many were written. cap must be >=
  /// max_sessions(). Allocation-free (insertion sort over <= cap slots).
  std::size_t snapshot_attached(Session** out, std::size_t cap) const;

 private:
  std::vector<std::unique_ptr<Session>> slots_;
};

}  // namespace wb::serve
