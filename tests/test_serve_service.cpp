#include "serve/capture_service.h"

#include <gtest/gtest.h>

#include <limits>

#include "obs/metrics.h"
#include "reference/reference.h"
#include "serve/error.h"
#include "util/check.h"
#include "util/codes.h"
#include "wifi/replay.h"

namespace wb::serve {
namespace {

using reference::make_trace;

const BitVec& shared_payload() {
  static const BitVec payload = random_bits(24, 1);
  return payload;
}

/// One frame at 0.7 s, traffic to 1.2 s (the frame ends at 0.885 s, so
/// push-path scans emit it without needing a flush).
const wifi::CaptureTrace& shared_trace() {
  static const wifi::CaptureTrace trace =
      make_trace({TimeUs{700'000}}, {shared_payload()}, TimeUs{5'000},
                 TimeUs{1'200'000}, 2);
  return trace;
}

reader::StreamingDecoderConfig stream_config() {
  reader::StreamingDecoderConfig cfg;
  cfg.decoder.payload_bits = 24;
  cfg.decoder.bit_duration_us = TimeUs{5'000};
  return cfg;
}

ServeConfig serve_config(unsigned threads, BackpressurePolicy policy,
                         std::size_t ring_capacity) {
  ServeConfig cfg;
  cfg.ring_capacity = ring_capacity;
  cfg.policy = policy;
  cfg.max_sessions = 8;
  cfg.dispatch_threads = threads;
  cfg.decoder = stream_config();
  cfg.frame_capacity = 16;
  return cfg;
}

constexpr std::size_t kSessions = 3;
constexpr TimeUs kStagger{1'733};

/// Feeds shared_trace() to `sessions` staggered streams and drains.
void feed_all(CaptureService& svc, std::size_t sessions, bool poll_each) {
  auto feed = wifi::MultiSessionFeed(
      wifi::fan_out(shared_trace(), sessions, kStagger));
  std::uint32_t session = 0;
  wifi::CaptureRecord rec{};
  while (feed.next(session, rec)) {
    EXPECT_TRUE(svc.submit(session, rec).ok());
    if (poll_each) svc.poll();
  }
  svc.drain_all();
}

struct RunOutput {
  std::string frames;     ///< concatenated per-session frames_jsonl
  std::string forensics;  ///< merged forensics JSONL
};

/// attach_variant 0: attach 0..N-1 in order.
/// attach_variant 1: attach in reverse, plus a bystander session that
/// attaches and detaches before any record flows.
RunOutput run_service(unsigned threads, BackpressurePolicy policy,
                      std::size_t ring_capacity, int attach_variant,
                      bool poll_each) {
  CaptureService svc(serve_config(threads, policy, ring_capacity));
  if (attach_variant == 0) {
    for (std::uint32_t id = 0; id < kSessions; ++id) {
      EXPECT_TRUE(svc.attach(id).ok());
    }
  } else {
    EXPECT_TRUE(svc.attach(7).ok());  // bystander
    for (std::uint32_t id = kSessions; id-- > 0;) {
      EXPECT_TRUE(svc.attach(id).ok());
    }
    EXPECT_TRUE(svc.detach(7).ok());
  }
  feed_all(svc, kSessions, poll_each);
  RunOutput out;
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    const Session* s = svc.find(id);
    EXPECT_NE(s, nullptr);
    if (s != nullptr) out.frames += s->frames_jsonl();
  }
  out.forensics = svc.forensics_jsonl();
  return out;
}

TEST(CaptureService, BlockProducerSmallRingLosesNothing) {
  // Ring far smaller than the workload: submit must backpressure by
  // draining inline, and every record still reaches its decoder.
  CaptureService svc(serve_config(1, BackpressurePolicy::kBlockProducer, 32));
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    ASSERT_TRUE(svc.attach(id).ok());
  }
  feed_all(svc, kSessions, /*poll_each=*/false);

  const auto& c = svc.counters();
  EXPECT_EQ(c.submitted, shared_trace().size() * kSessions);
  EXPECT_EQ(c.accepted, c.submitted);
  EXPECT_EQ(c.routed, c.submitted);
  EXPECT_EQ(c.dropped_backpressure, 0u);
  EXPECT_GT(c.blocked, 0u);  // the small ring did fill

  for (std::uint32_t id = 0; id < kSessions; ++id) {
    const Session* s = svc.find(id);
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->frames_total(), 1u) << "session " << id;
    EXPECT_EQ(s->frame(0).payload, shared_payload());
  }

  // Ingest ledger reconciles with zero drops.
  obs::ForensicsSink merged;
  svc.merge_forensics_into(merged);
  EXPECT_EQ(merged.attempts(obs::DropStage::kIngest), c.submitted);
  EXPECT_EQ(merged.decodes(obs::DropStage::kIngest), c.submitted);
  EXPECT_EQ(merged.total_drops(obs::DropStage::kIngest), 0u);
}

TEST(CaptureService, DropOldestShedsAndLedgerReconciles) {
  // Never poll: the tiny ring must keep evicting, and the ledger must
  // still balance after the drain.
  CaptureService svc(serve_config(1, BackpressurePolicy::kDropOldest, 8));
  ASSERT_TRUE(svc.attach(0).ok());
  auto feed =
      wifi::MultiSessionFeed(wifi::fan_out(shared_trace(), 1, TimeUs{0}));
  std::uint32_t session = 0;
  wifi::CaptureRecord rec{};
  while (feed.next(session, rec)) {
    ASSERT_TRUE(svc.submit(session, rec).ok());
  }
  svc.drain_all();

  const auto& c = svc.counters();
  const std::uint64_t n = shared_trace().size();
  EXPECT_EQ(c.submitted, n);
  EXPECT_EQ(c.accepted, n);  // drop-oldest always admits the new record
  EXPECT_EQ(c.dropped_backpressure, n - 8);
  EXPECT_EQ(c.routed, 8u);  // only the final ring-full survived
  EXPECT_EQ(c.blocked, 0u);

  obs::ForensicsSink merged;
  svc.merge_forensics_into(merged);
  EXPECT_EQ(merged.attempts(obs::DropStage::kIngest), n);
  EXPECT_EQ(merged.decodes(obs::DropStage::kIngest) +
                merged.total_drops(obs::DropStage::kIngest),
            n);
  EXPECT_EQ(merged.drops(obs::DropStage::kIngest,
                         obs::DropReason::kBackpressure),
            n - 8);
  // The drop path stored (bounded) raw exemplars of the victims: the
  // per-cell cap worth of backpressure captures, alongside whatever the
  // session's own decoder stages stored.
  const std::string jsonl = merged.to_jsonl();
  EXPECT_NE(jsonl.find("serve_ingest_backpressure.0.csv"), std::string::npos);
  EXPECT_NE(jsonl.find("serve_ingest_backpressure.1.csv"), std::string::npos);
  EXPECT_EQ(jsonl.find("serve_ingest_backpressure.2.csv"), std::string::npos);
}

TEST(CaptureService, DropNewestRefusesAndLedgerReconciles) {
  CaptureService svc(serve_config(1, BackpressurePolicy::kDropNewest, 8));
  ASSERT_TRUE(svc.attach(0).ok());
  auto feed =
      wifi::MultiSessionFeed(wifi::fan_out(shared_trace(), 1, TimeUs{0}));
  std::uint32_t session = 0;
  wifi::CaptureRecord rec{};
  while (feed.next(session, rec)) {
    ASSERT_TRUE(svc.submit(session, rec).ok());
  }
  svc.drain_all();

  const auto& c = svc.counters();
  const std::uint64_t n = shared_trace().size();
  EXPECT_EQ(c.submitted, n);
  EXPECT_EQ(c.accepted, 8u);  // only the first ring-full was admitted
  EXPECT_EQ(c.dropped_backpressure, n - 8);
  EXPECT_EQ(c.routed, 8u);

  obs::ForensicsSink merged;
  svc.merge_forensics_into(merged);
  EXPECT_EQ(merged.attempts(obs::DropStage::kIngest), n);
  EXPECT_EQ(merged.decodes(obs::DropStage::kIngest) +
                merged.total_drops(obs::DropStage::kIngest),
            n);
}

TEST(CaptureService, DrainRecoversStrandedTailFrame) {
  // Traffic stops right after the frame ends: no push-path scan can emit
  // it, so the frame exists only in the decoders' buffered tails.
  // drain_all() must flush it out for every session — the "drain loses
  // no decodable frame" acceptance criterion.
  const BitVec payload = random_bits(24, 10);
  const auto trace = make_trace({TimeUs{700'000}}, {payload}, TimeUs{5'000},
                                TimeUs{890'000}, 11);
  CaptureService svc(serve_config(1, BackpressurePolicy::kBlockProducer, 64));
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    ASSERT_TRUE(svc.attach(id).ok());
  }
  auto feed = wifi::MultiSessionFeed(wifi::fan_out(trace, kSessions, kStagger));
  std::uint32_t session = 0;
  wifi::CaptureRecord rec{};
  while (feed.next(session, rec)) {
    ASSERT_TRUE(svc.submit(session, rec).ok());
  }
  EXPECT_EQ(svc.frames_total(), 0u);  // stranded before the drain
  const std::size_t drained = svc.drain_all();
  EXPECT_EQ(drained, kSessions);
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    const Session* s = svc.find(id);
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->frames_total(), 1u) << "session " << id;
    EXPECT_EQ(s->frame(0).payload, payload);
  }
}

TEST(CaptureService, OutputsIdenticalAcrossThreadCounts) {
  const RunOutput serial =
      run_service(1, BackpressurePolicy::kBlockProducer, 64, 0, false);
  const RunOutput parallel =
      run_service(8, BackpressurePolicy::kBlockProducer, 64, 0, false);
  ASSERT_FALSE(serial.frames.empty());
  EXPECT_EQ(serial.frames, parallel.frames);
  EXPECT_EQ(serial.forensics, parallel.forensics);
}

TEST(CaptureService, OutputsIdenticalAcrossAttachInterleaving) {
  // Reverse attach order, a bystander attach/detach, and per-submit
  // polling must not change a byte of any session's decode output or of
  // the merged forensics.
  const RunOutput plain =
      run_service(1, BackpressurePolicy::kBlockProducer, 64, 0, false);
  const RunOutput shuffled =
      run_service(1, BackpressurePolicy::kBlockProducer, 64, 1, true);
  ASSERT_FALSE(plain.frames.empty());
  EXPECT_EQ(plain.frames, shuffled.frames);
  EXPECT_EQ(plain.forensics, shuffled.forensics);
}

TEST(CaptureService, OutputsIdenticalAcrossPoliciesWithoutBackpressure) {
  // Polling after every submit keeps the ring depth at <= 1, so no
  // policy ever engages and all three must produce identical bytes.
  const RunOutput block =
      run_service(1, BackpressurePolicy::kBlockProducer, 64, 0, true);
  const RunOutput oldest =
      run_service(1, BackpressurePolicy::kDropOldest, 64, 0, true);
  const RunOutput newest =
      run_service(1, BackpressurePolicy::kDropNewest, 64, 0, true);
  ASSERT_FALSE(block.frames.empty());
  EXPECT_EQ(block.frames, oldest.frames);
  EXPECT_EQ(block.frames, newest.frames);
  EXPECT_EQ(block.forensics, oldest.forensics);
  EXPECT_EQ(block.forensics, newest.forensics);
}

TEST(CaptureService, ErrorTaxonomy) {
  CaptureService svc(serve_config(1, BackpressurePolicy::kBlockProducer, 16));
  EXPECT_TRUE(svc.attach(1).ok());
  EXPECT_EQ(svc.attach(1).code(), ErrorCode::kAlreadyExists);
  for (std::uint32_t id = 2; id <= 8; ++id) {
    EXPECT_TRUE(svc.attach(id).ok());
  }
  EXPECT_EQ(svc.attach(9).code(), ErrorCode::kCapacity);
  EXPECT_EQ(svc.detach(99).code(), ErrorCode::kNotFound);
  wifi::CaptureRecord rec{};
  EXPECT_EQ(svc.submit(99, rec).code(), ErrorCode::kNotFound);

  EXPECT_TRUE(svc.stop().ok());
  EXPECT_EQ(svc.state(), ServiceState::kStopped);
  EXPECT_EQ(svc.attach(10).code(), ErrorCode::kWrongState);
  EXPECT_EQ(svc.submit(1, rec).code(), ErrorCode::kWrongState);
  EXPECT_EQ(svc.detach(1).code(), ErrorCode::kWrongState);
  EXPECT_TRUE(svc.stop().ok());  // idempotent
}

TEST(CaptureService, ValidateRejectsConfigsTheServiceCannotRun) {
  EXPECT_TRUE(validate(ServeConfig{}).ok());
  const auto rejects = [](auto&& edit) {
    ServeConfig cfg;
    edit(cfg);
    const Error err = validate(cfg);
    EXPECT_EQ(err.code(), ErrorCode::kInvalidArguments);
    EXPECT_FALSE(err.message().empty());
    // The constructor's contract is the same check.
    ScopedContractPolicy guard(ContractPolicy::kThrow);
    EXPECT_THROW(CaptureService{cfg}, ContractViolation);
  };
  rejects([](ServeConfig& c) { c.max_sessions = 0; });
  rejects([](ServeConfig& c) { c.ring_capacity = 0; });
  rejects([](ServeConfig& c) { c.frame_capacity = 0; });
  rejects([](ServeConfig& c) { c.decoder.decoder.bit_duration_us = TimeUs{}; });
  rejects([](ServeConfig& c) {
    c.decoder.decoder.bit_duration_us = TimeUs{-5'000};
  });
}

TEST(CaptureService, OutOfOrderRecordRejectedBeforeRing) {
  // A record older than the session's last one used to pass submit() and
  // then abort the process in the streaming decoder's time-order
  // precondition on the next poll().
  CaptureService svc(serve_config(1, BackpressurePolicy::kBlockProducer, 16));
  ASSERT_TRUE(svc.attach(1).ok());
  const auto& trace = shared_trace();
  ASSERT_TRUE(svc.submit(1, trace[10]).ok());
  EXPECT_EQ(svc.submit(1, trace[9]).code(), ErrorCode::kInvalidArguments);
  EXPECT_EQ(svc.counters().submitted, 1u);
  EXPECT_EQ(svc.ring_depth(), 1u);
  svc.poll();
  EXPECT_TRUE(svc.submit(1, trace[10]).ok());  // equal timestamps are fine
  svc.drain_all();
  obs::ForensicsSink merged;
  svc.merge_forensics_into(merged);
  EXPECT_EQ(merged.attempts(obs::DropStage::kIngest), 2u);
  EXPECT_EQ(merged.decodes(obs::DropStage::kIngest), 2u);
  // A re-attached session starts a fresh timeline.
  ASSERT_TRUE(svc.detach(1).ok());
  ASSERT_TRUE(svc.attach(1).ok());
  EXPECT_TRUE(svc.submit(1, trace[0]).ok());
  svc.drain_all();
}

TEST(CaptureService, NonFiniteRecordRejectedBeforeRing) {
  // One NaN CSI cell used to pass submit() and then abort drain_all() in
  // the decoder's MRC noise-variance postcondition (max(NaN, floor) is
  // NaN).
  CaptureService svc(serve_config(1, BackpressurePolicy::kBlockProducer, 64));
  ASSERT_TRUE(svc.attach(0).ok());
  const auto& trace = shared_trace();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    wifi::CaptureRecord rec = trace[i];
    if (i == 2150) rec.csi[0][3] = nan;         // inside the preamble
    if (i == 2151) rec.rssi_dbm[2] = -inf;
    const Error err = svc.submit(0, rec);
    if (!err.ok()) {
      EXPECT_EQ(err.code(), ErrorCode::kInvalidArguments);
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 2u);
  EXPECT_EQ(svc.counters().submitted, trace.size() - 2);
  svc.drain_all();
  EXPECT_EQ(svc.find(0)->frames_total(), 1u);
  // A record without CSI never has its CSI cells read, so they are not
  // checked.
  wifi::CaptureRecord rssi_only = trace.back();
  rssi_only.has_csi = false;
  rssi_only.csi[0][0] = nan;
  EXPECT_TRUE(svc.submit(0, rssi_only).ok());
}

TEST(CaptureService, OutOfRangeRecordRejectedBeforeRing) {
  // Conditioning's exact sums hold only values within
  // kMaxMeasurementMagnitude: a finite 1e300 is refused at submit() and
  // no decoder sees it.
  CaptureService svc(serve_config(1, BackpressurePolicy::kBlockProducer, 64));
  ASSERT_TRUE(svc.attach(0).ok());
  wifi::CaptureRecord rec = shared_trace().front();
  rec.csi[2][29] = 1e300;
  const Error err = svc.submit(0, rec);
  EXPECT_EQ(err.code(), ErrorCode::kInvalidArguments);
  rec = shared_trace().front();
  rec.rssi_dbm[0] = -1e300;
  EXPECT_EQ(svc.submit(0, rec).code(), ErrorCode::kInvalidArguments);
  EXPECT_EQ(svc.counters().submitted, 0u);
  EXPECT_EQ(svc.counters().accepted, 0u);
  svc.drain_all();
  EXPECT_EQ(svc.find(0)->records_dispatched(), 0u);
  // The bound itself is in range.
  rec = shared_trace().front();
  rec.csi[0][0] = wifi::kMaxMeasurementMagnitude;
  EXPECT_TRUE(svc.submit(0, rec).ok());
}

TEST(CaptureService, DetachRetiresForensicsAndFreesSlot) {
  CaptureService svc(serve_config(1, BackpressurePolicy::kBlockProducer, 64));
  ASSERT_TRUE(svc.attach(0).ok());
  auto feed =
      wifi::MultiSessionFeed(wifi::fan_out(shared_trace(), 1, TimeUs{0}));
  std::uint32_t session = 0;
  wifi::CaptureRecord rec{};
  while (feed.next(session, rec)) {
    ASSERT_TRUE(svc.submit(session, rec).ok());
  }
  ASSERT_TRUE(svc.detach(0).ok());
  EXPECT_EQ(svc.find(0), nullptr);
  EXPECT_EQ(svc.active_sessions(), 0u);
  EXPECT_EQ(svc.state(), ServiceState::kIdle);

  // The ingest ledger and the retired session's decode ledger survive
  // the detach in the merged export.
  obs::ForensicsSink merged;
  svc.merge_forensics_into(merged);
  const std::uint64_t n = shared_trace().size();
  EXPECT_EQ(merged.attempts(obs::DropStage::kIngest), n);
  EXPECT_EQ(merged.decodes(obs::DropStage::kIngest), n);
  EXPECT_GT(merged.decodes(obs::DropStage::kStreamingDecoder), 0u);

  // The slot is reusable for a fresh id.
  EXPECT_TRUE(svc.attach(12).ok());
  EXPECT_EQ(svc.state(), ServiceState::kServing);
}

TEST(CaptureService, StopDrainsDetachesAndIsTerminal) {
  CaptureService svc(serve_config(1, BackpressurePolicy::kBlockProducer, 64));
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    ASSERT_TRUE(svc.attach(id).ok());
  }
  auto feed = wifi::MultiSessionFeed(
      wifi::fan_out(shared_trace(), kSessions, kStagger));
  std::uint32_t session = 0;
  wifi::CaptureRecord rec{};
  while (feed.next(session, rec)) {
    ASSERT_TRUE(svc.submit(session, rec).ok());
  }
  ASSERT_TRUE(svc.stop().ok());
  EXPECT_EQ(svc.state(), ServiceState::kStopped);
  EXPECT_EQ(svc.active_sessions(), 0u);

  // Every session's ledger was retired, not lost: each decoded a frame.
  obs::ForensicsSink merged;
  svc.merge_forensics_into(merged);
  EXPECT_EQ(merged.decodes(obs::DropStage::kStreamingDecoder), kSessions);
  EXPECT_EQ(merged.attempts(obs::DropStage::kIngest),
            merged.decodes(obs::DropStage::kIngest));
}

TEST(CaptureService, PropertiesSnapshotIsSortedAndComplete) {
  CaptureService svc(serve_config(1, BackpressurePolicy::kDropOldest, 16));
  ASSERT_TRUE(svc.attach(3).ok());
  const auto props = svc.properties();
  ASSERT_FALSE(props.empty());
  for (std::size_t i = 1; i < props.size(); ++i) {
    EXPECT_LT(props[i - 1].first, props[i].first);
  }
  auto value_of = [&](const std::string& key) -> std::string {
    for (const auto& kv : props) {
      if (kv.first == key) return kv.second;
    }
    return "<missing>";
  };
  EXPECT_EQ(value_of("ring.capacity"), "16");
  EXPECT_EQ(value_of("ring.policy"), "drop_oldest");
  EXPECT_EQ(value_of("service.state"), "serving");
  EXPECT_EQ(value_of("sessions.active"), "1");
  EXPECT_EQ(value_of("sessions.max"), "8");
  EXPECT_EQ(value_of("ingest.submitted_total"), "0");
  EXPECT_EQ(value_of("reader.streaming.scans_total"), "0");
  EXPECT_EQ(value_of("reader.streaming.records_conditioned_total"), "0");
}

TEST(CaptureService, ScanCountersSumTheSessionsDecoders) {
  CaptureService svc(serve_config(2, BackpressurePolicy::kBlockProducer, 64));
  ASSERT_TRUE(svc.attach(0).ok());
  ASSERT_TRUE(svc.attach(1).ok());
  auto feed =
      wifi::MultiSessionFeed(wifi::fan_out(shared_trace(), 2, TimeUs{500}));
  std::uint32_t session = 0;
  wifi::CaptureRecord rec{};
  while (feed.next(session, rec)) {
    ASSERT_TRUE(svc.submit(session, rec).ok());
  }
  svc.drain_all();
  const auto& d0 = svc.find(0)->decoder();
  const auto& d1 = svc.find(1)->decoder();
  EXPECT_GT(d0.scans(), 0u);
  // Every scan centers at least one record and at most the whole capture.
  EXPECT_GE(d0.records_conditioned(), d0.scans());
  EXPECT_LE(d0.records_conditioned(), d0.scans() * shared_trace().size());
  const auto totals = svc.scan_totals();
  EXPECT_EQ(totals.scans, d0.scans() + d1.scans());
  EXPECT_EQ(totals.records_conditioned,
            d0.records_conditioned() + d1.records_conditioned());
}

TEST(CaptureService, PublishMetricsWritesServeNames) {
  CaptureService svc(serve_config(1, BackpressurePolicy::kBlockProducer, 64));
  ASSERT_TRUE(svc.attach(0).ok());
  auto feed =
      wifi::MultiSessionFeed(wifi::fan_out(shared_trace(), 1, TimeUs{0}));
  std::uint32_t session = 0;
  wifi::CaptureRecord rec{};
  while (feed.next(session, rec)) {
    ASSERT_TRUE(svc.submit(session, rec).ok());
  }
  svc.drain_all();

  obs::MetricsRegistry registry;
  {
    obs::ScopedMetrics guard(registry);
    svc.publish_metrics();
  }
  const auto snap = registry.snapshot();
  auto counter_of = [&](const std::string& name) -> std::uint64_t {
    for (const auto& kv : snap.counters) {
      if (kv.first == name) return kv.second;
    }
    return static_cast<std::uint64_t>(-1);
  };
  EXPECT_EQ(counter_of("serve.ingest.submitted_total"),
            shared_trace().size());
  EXPECT_EQ(counter_of("serve.ingest.accepted_total"),
            shared_trace().size());
  EXPECT_EQ(counter_of("serve.dispatch.records_total"),
            shared_trace().size());
  EXPECT_EQ(counter_of("serve.session.frames_total"), 1u);
}

TEST(CaptureService, ServiceStateTokensAreStable) {
  EXPECT_STREQ(to_string(ServiceState::kIdle), "idle");
  EXPECT_STREQ(to_string(ServiceState::kServing), "serving");
  EXPECT_STREQ(to_string(ServiceState::kDraining), "draining");
  EXPECT_STREQ(to_string(ServiceState::kStopped), "stopped");
}

}  // namespace
}  // namespace wb::serve
