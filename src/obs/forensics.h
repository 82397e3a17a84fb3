// Decode forensics: a drop-reason taxonomy threaded through every failure
// exit of the reader pipeline and the core sims, with per-stage counters
// and a bounded exemplar store.
//
// Every stage that tries to decode something records an *attempt*; every
// success records a *decode*; every failure exit records exactly one
// (stage, reason) *drop*. The per-stage invariant
//
//   attempts(stage) == decodes(stage) + total_drops(stage)
//
// holds by construction and is what the forensics check in check.sh pins
// for a CLI query exchange: every stage's drops sum to (attempts −
// decodes).
//
// The exemplar store retains the first N raw traces per (stage, reason) as
// pre-serialized capture CSV (the `trace_io --in` format), so a postmortem
// can replay the exact input that died. Serialization happens at the drop
// site — obs stays below wifi in the layering, so the sink only ever sees
// opaque strings.
//
// Like the metrics registry and tracer, the sink is installed per-thread:
// sites guard on `obs::forensics()` returning non-null, the disabled path
// is one thread-local load and branch, and parallel sweeps give every task
// its own sink and merge them in task-index order so output is
// byte-identical at any thread count.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/thread_annotations.h"

namespace wb::obs {

class FlightRecorder;

/// Pipeline stage that observed the failure. Order is the export order.
enum class DropStage : std::uint8_t {
  kConditioning,      ///< reader::condition_into
  kUplinkDecoder,     ///< reader::UplinkDecoder
  kCorrDecoder,       ///< reader::CodedUplinkDecoder
  kAckDetector,       ///< reader::detect_ack
  kStreamingDecoder,  ///< reader::StreamingUplinkDecoder
  kCoreUplink,        ///< core::WiFiBackscatterSystem uplink leg
  kCoreDownlink,      ///< core::WiFiBackscatterSystem downlink leg
  kWifiMac,           ///< wifi::MacSimulator transmissions
  kIngest,            ///< serve::IngestRing admission (capture service)
};
inline constexpr std::size_t kNumDropStages = 9;

/// Why the packet/frame died. One failure exit maps to exactly one reason.
enum class DropReason : std::uint8_t {
  kEmptyTrace,         ///< no usable records reached the stage
  kNoPreamble,         ///< no candidate window ever scored
  kLowSnr,             ///< best correlation below the sync threshold
  kClipped,            ///< winsorisation clamped enough samples to distrust
  kCollision,          ///< MAC-level overlap destroyed the transmission
  kSlicerAmbiguous,    ///< sync found but payload slots carry no packets
  kCrcFail,            ///< bits decoded but the frame checksum rejected them
  kDrainedIncomplete,  ///< flush() discarded a partial tail window
  kBackpressure,       ///< ingest ring full: record evicted or rejected
};
inline constexpr std::size_t kNumDropReasons = 9;

/// Dotted stage name, e.g. "reader.uplink" (stable export token).
const char* to_string(DropStage stage) noexcept;
/// Snake-case reason token, e.g. "no_preamble" (stable export token).
const char* to_string(DropReason reason) noexcept;
/// Stage token with '_' for '.', e.g. "reader_uplink" — used in mirrored
/// metric names and exemplar file names.
const char* metric_token(DropStage stage) noexcept;

/// Per-stage attempt/decode/drop counters plus the bounded exemplar store.
/// Counter updates are lock-free; the exemplar store takes a mutex (cold
/// path: at most `exemplar_cap` times per (stage, reason) per sink).
class ForensicsSink {
 public:
  /// `exemplar_cap` = max retained raw traces per (stage, reason).
  explicit ForensicsSink(std::size_t exemplar_cap = kDefaultExemplarCap);

  ForensicsSink(const ForensicsSink&) = delete;
  ForensicsSink& operator=(const ForensicsSink&) = delete;

  static constexpr std::size_t kDefaultExemplarCap = 2;

  /// A decode attempt entered `stage`.
  void record_attempt(DropStage stage) noexcept;
  /// The attempt at `stage` succeeded.
  void record_decode(DropStage stage) noexcept;
  /// The attempt at `stage` failed for `reason`. Mirrors a
  /// `forensics.<stage>.<reason>_total` counter into the installed metrics
  /// registry (if any) so RunReports and wb_report_diff see drop reasons.
  WB_REALTIME void record_drop(DropStage stage, DropReason reason);

  /// True while the (stage, reason) exemplar slot has room — call before
  /// paying for trace serialization.
  bool wants_exemplar(DropStage stage, DropReason reason) const noexcept;
  /// Store a pre-serialized capture CSV (trace_io format). Ignored once
  /// the (stage, reason) slot is full.
  void add_exemplar(DropStage stage, DropReason reason, std::string csv);

  std::uint64_t attempts(DropStage stage) const noexcept;
  std::uint64_t decodes(DropStage stage) const noexcept;
  std::uint64_t drops(DropStage stage, DropReason reason) const noexcept;
  /// Sum of drops(stage, *) — equals attempts(stage) - decodes(stage).
  std::uint64_t total_drops(DropStage stage) const noexcept;
  /// Sum of drops over all stages and reasons.
  std::uint64_t total_drops() const noexcept;

  std::size_t exemplar_cap() const noexcept { return exemplar_cap_; }
  std::size_t num_exemplars() const;

  /// Accumulate another sink: counters add; exemplars append in the
  /// other sink's stored order until this sink's caps fill. Merging sinks
  /// in ascending task order therefore yields the same bytes regardless
  /// of how tasks were scheduled (see runner::SweepRunner).
  void merge_from(const ForensicsSink& other);

  /// Deterministic JSONL: a meta line, one line per stage (zeros
  /// included), one aggregate line per reason (zeros included — this is
  /// the taxonomy-coverage surface check.sh pins), one line per nonzero
  /// (stage, reason) pair, one line per stored exemplar, and, when
  /// `recorder` is non-null, one line per flight-recorder event.
  std::string to_jsonl(const FlightRecorder* recorder = nullptr) const;
  /// Returns false if the file cannot be written.
  bool write_jsonl(const std::string& path,
                   const FlightRecorder* recorder = nullptr) const;
  /// Write each stored exemplar to `<prefix>.<stage>_<reason>.<ordinal>.csv`
  /// (replayable via `trace_io --in`); returns how many files were written.
  std::size_t write_exemplars(const std::string& prefix) const;

 private:
  struct Exemplar {
    DropStage stage;
    DropReason reason;
    std::size_t ordinal = 0;  ///< per-(stage, reason) index, 0-based
    std::string csv;
  };

  static std::size_t cell(DropStage stage, DropReason reason) noexcept {
    return static_cast<std::size_t>(stage) * kNumDropReasons +
           static_cast<std::size_t>(reason);
  }

  std::size_t exemplar_cap_;
  std::array<std::atomic<std::uint64_t>, kNumDropStages> attempts_{};
  std::array<std::atomic<std::uint64_t>, kNumDropStages> decodes_{};
  std::array<std::atomic<std::uint64_t>, kNumDropStages * kNumDropReasons>
      drops_{};
  /// Filled count per (stage, reason); lets wants_exemplar() answer
  /// without the lock.
  std::array<std::atomic<std::uint32_t>, kNumDropStages * kNumDropReasons>
      exemplar_counts_{};

  mutable util::Mutex mu_;  ///< guards exemplars_
  std::vector<Exemplar> exemplars_ WB_GUARDED_BY(mu_);
};

/// The sink installed on *this thread*; nullptr when forensics is off.
/// Same contract as obs::metrics(): sites must null-check, and sweep
/// workers see only the sink their own task installed.
ForensicsSink* forensics() noexcept;

/// RAII install/restore of this thread's sink.
class ScopedForensics {
 public:
  explicit ScopedForensics(ForensicsSink& sink);
  ~ScopedForensics();
  ScopedForensics(const ScopedForensics&) = delete;
  ScopedForensics& operator=(const ScopedForensics&) = delete;

 private:
  ForensicsSink* prev_;
};

}  // namespace wb::obs
