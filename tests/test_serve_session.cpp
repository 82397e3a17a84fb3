#include "serve/session.h"

#include <gtest/gtest.h>

#include "reference/reference.h"
#include "serve/error.h"
#include "util/check.h"
#include "util/codes.h"

namespace wb::serve {
namespace {

using reference::make_trace;

reader::StreamingDecoderConfig stream_config() {
  reader::StreamingDecoderConfig cfg;
  cfg.decoder.payload_bits = 24;
  cfg.decoder.bit_duration_us = TimeUs{5'000};
  return cfg;
}

SessionLimits big_limits() {
  SessionLimits limits;
  limits.pending_capacity = 8'192;
  limits.frame_capacity = 16;
  return limits;
}

TEST(Session, LifecycleAttachDispatchDetach) {
  Session s(stream_config(), big_limits());
  EXPECT_EQ(s.state(), SessionState::kDetached);
  s.attach(42);
  EXPECT_EQ(s.state(), SessionState::kAttached);
  EXPECT_EQ(s.id(), 42u);

  const BitVec payload = random_bits(24, 1);
  const auto trace = make_trace({TimeUs{700'000}}, {payload}, TimeUs{5'000},
                                TimeUs{1'500'000}, 2);
  for (const auto& rec : trace) s.enqueue(rec);
  EXPECT_EQ(s.pending(), trace.size());
  s.dispatch_pending();
  EXPECT_EQ(s.state(), SessionState::kActive);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.records_dispatched(), trace.size());
  ASSERT_EQ(s.frames_total(), 1u);
  EXPECT_EQ(s.frame(0).payload, payload);
  EXPECT_EQ(s.frame(0).ordinal, 0u);

  s.detach();
  EXPECT_EQ(s.state(), SessionState::kDetached);
}

TEST(Session, FlushDrainsStrandedFrame) {
  // Traffic stops right after the frame ends: dispatch alone cannot emit
  // it (the decoder waits for a later record), flush must.
  Session s(stream_config(), big_limits());
  s.attach(1);
  const BitVec payload = random_bits(24, 10);
  const auto trace = make_trace({TimeUs{700'000}}, {payload}, TimeUs{5'000},
                                TimeUs{890'000}, 11);
  for (const auto& rec : trace) s.enqueue(rec);
  EXPECT_EQ(s.dispatch_pending(), 0u);
  EXPECT_EQ(s.flush(), 1u);
  ASSERT_EQ(s.frames_total(), 1u);
  EXPECT_EQ(s.frame(0).payload, payload);
}

TEST(Session, ReattachResetsDecodeState) {
  Session s(stream_config(), big_limits());
  s.attach(1);
  const BitVec payload = random_bits(24, 1);
  const auto trace = make_trace({TimeUs{700'000}}, {payload}, TimeUs{5'000},
                                TimeUs{1'500'000}, 2);
  for (const auto& rec : trace) s.enqueue(rec);
  s.dispatch_pending();
  ASSERT_EQ(s.frames_total(), 1u);
  const std::string first = s.frames_jsonl();
  s.detach();

  // Same slot, same records: the second life must behave identically
  // apart from the session id (decoder and counters fully reset).
  s.attach(1);
  EXPECT_EQ(s.frames_total(), 0u);
  EXPECT_EQ(s.records_dispatched(), 0u);
  for (const auto& rec : trace) s.enqueue(rec);
  s.dispatch_pending();
  EXPECT_EQ(s.frames_jsonl(), first);
}

TEST(Session, FrameRingOverwritesOldest) {
  SessionLimits limits = big_limits();
  limits.frame_capacity = 1;
  Session s(stream_config(), limits);
  s.attach(5);
  const BitVec p1 = random_bits(24, 3);
  const BitVec p2 = random_bits(24, 4);
  const auto trace =
      make_trace({TimeUs{700'000}, TimeUs{1'400'000}}, {p1, p2},
                 TimeUs{5'000}, TimeUs{2'200'000}, 5);
  for (const auto& rec : trace) s.enqueue(rec);
  s.dispatch_pending();
  EXPECT_EQ(s.frames_total(), 2u);
  ASSERT_EQ(s.frames_kept(), 1u);
  EXPECT_EQ(s.frame(0).ordinal, 1u);  // only the newest survives
  EXPECT_EQ(s.frame(0).payload, p2);
}

TEST(Session, EnqueueBeyondPendingCapacityViolates) {
  SessionLimits limits = big_limits();
  limits.pending_capacity = 2;
  Session s(stream_config(), limits);
  s.attach(1);
  wifi::CaptureRecord rec{};
  s.enqueue(rec);
  s.enqueue(rec);
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  EXPECT_THROW(s.enqueue(rec), ContractViolation);
}

TEST(Session, DetachWithPendingRecordsViolates) {
  Session s(stream_config(), big_limits());
  s.attach(1);
  wifi::CaptureRecord rec{};
  s.enqueue(rec);
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  EXPECT_THROW(s.detach(), ContractViolation);
}

TEST(Session, StateTokensAreStable) {
  EXPECT_STREQ(to_string(SessionState::kDetached), "detached");
  EXPECT_STREQ(to_string(SessionState::kAttached), "attached");
  EXPECT_STREQ(to_string(SessionState::kActive), "active");
  EXPECT_STREQ(to_string(SessionState::kDraining), "draining");
}

TEST(SessionManager, AttachFindRelease) {
  SessionManager mgr(2, stream_config(), big_limits());
  EXPECT_TRUE(mgr.attach(10).ok());
  EXPECT_TRUE(mgr.attach(20).ok());
  EXPECT_EQ(mgr.active_count(), 2u);
  ASSERT_NE(mgr.find(10), nullptr);
  EXPECT_EQ(mgr.find(10)->id(), 10u);
  EXPECT_EQ(mgr.find(30), nullptr);

  EXPECT_TRUE(mgr.release(10).ok());
  EXPECT_EQ(mgr.find(10), nullptr);
  EXPECT_EQ(mgr.active_count(), 1u);
}

TEST(SessionManager, DuplicateAttachFails) {
  SessionManager mgr(2, stream_config(), big_limits());
  EXPECT_TRUE(mgr.attach(10).ok());
  const Error err = mgr.attach(10);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), ErrorCode::kAlreadyExists);
}

TEST(SessionManager, PoolExhaustionFails) {
  SessionManager mgr(1, stream_config(), big_limits());
  EXPECT_TRUE(mgr.attach(10).ok());
  const Error err = mgr.attach(11);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), ErrorCode::kCapacity);
  // Releasing frees the slot for a new id.
  EXPECT_TRUE(mgr.release(10).ok());
  EXPECT_TRUE(mgr.attach(11).ok());
}

TEST(SessionManager, ReleaseUnknownFails) {
  SessionManager mgr(1, stream_config(), big_limits());
  const Error err = mgr.release(99);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), ErrorCode::kNotFound);
}

TEST(SessionManager, SnapshotIsSortedById) {
  SessionManager mgr(4, stream_config(), big_limits());
  // Attach out of order; the snapshot must come back ascending.
  EXPECT_TRUE(mgr.attach(30).ok());
  EXPECT_TRUE(mgr.attach(10).ok());
  EXPECT_TRUE(mgr.attach(40).ok());
  EXPECT_TRUE(mgr.attach(20).ok());
  std::vector<Session*> out(4, nullptr);
  ASSERT_EQ(mgr.snapshot_attached(out.data(), out.size()), 4u);
  EXPECT_EQ(out[0]->id(), 10u);
  EXPECT_EQ(out[1]->id(), 20u);
  EXPECT_EQ(out[2]->id(), 30u);
  EXPECT_EQ(out[3]->id(), 40u);
}

}  // namespace
}  // namespace wb::serve
