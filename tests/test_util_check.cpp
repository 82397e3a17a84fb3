#include "util/check.h"

#include <gtest/gtest.h>

#include <string>

#include "phy/drift.h"
#include "reader/uplink_decoder.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "tag/harvester.h"

namespace wb {
namespace {

// ---------------- macro semantics ----------------

TEST(Check, PassingContractsAreNoOps) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  EXPECT_NO_THROW(WB_REQUIRE(true));
  EXPECT_NO_THROW(WB_ENSURE(1 + 1 == 2, "arithmetic works"));
  EXPECT_NO_THROW(WB_INVARIANT(true));
}

TEST(Check, ConditionIsEvaluatedExactlyOnce) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  int calls = 0;
  WB_REQUIRE([&] {
    ++calls;
    return true;
  }());
  EXPECT_EQ(calls, 1);
}

TEST(Check, ThrowPolicyRaisesContractViolation) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  EXPECT_THROW(WB_REQUIRE(false), ContractViolation);
  EXPECT_THROW(WB_ENSURE(false), ContractViolation);
  EXPECT_THROW(WB_INVARIANT(false), ContractViolation);
}

TEST(Check, ViolationMessageCarriesLocationKindAndText) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  std::string what;
  try {
    WB_REQUIRE(2 < 1, "two is not less than one");
  } catch (const ContractViolation& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("test_util_check.cpp"), std::string::npos) << what;
  EXPECT_NE(what.find("precondition"), std::string::npos) << what;
  EXPECT_NE(what.find("2 < 1"), std::string::npos) << what;
  EXPECT_NE(what.find("two is not less than one"), std::string::npos) << what;
}

TEST(Check, EnsureAndInvariantReportTheirKind) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  try {
    WB_ENSURE(false);
    FAIL() << "WB_ENSURE(false) did not throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("postcondition"),
              std::string::npos);
  }
  try {
    WB_INVARIANT(false);
    FAIL() << "WB_INVARIANT(false) did not throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("invariant"), std::string::npos);
  }
}

TEST(Check, ScopedPolicyRestoresOnExit) {
  ASSERT_EQ(contract_policy(), ContractPolicy::kAbort);
  {
    ScopedContractPolicy guard(ContractPolicy::kThrow);
    EXPECT_EQ(contract_policy(), ContractPolicy::kThrow);
    {
      ScopedContractPolicy inner(ContractPolicy::kAbort);
      EXPECT_EQ(contract_policy(), ContractPolicy::kAbort);
    }
    EXPECT_EQ(contract_policy(), ContractPolicy::kThrow);
  }
  EXPECT_EQ(contract_policy(), ContractPolicy::kAbort);
}

TEST(CheckDeathTest, DefaultPolicyAbortsWithLocation) {
  ASSERT_EQ(contract_policy(), ContractPolicy::kAbort);
  EXPECT_DEATH(WB_REQUIRE(false, "boom"), "precondition violated.*boom");
}

// ---------------- wired boundary contracts ----------------
//
// One representative precondition per module, exercised through the
// public API it guards.

TEST(WiredContracts, EventQueueRejectsSchedulingIntoThePast) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  sim::EventQueue q;
  q.schedule_at(TimeUs{1'000}, [] {});
  q.run_until(TimeUs{1'000});
  ASSERT_EQ(q.now(), TimeUs{1'000});
  EXPECT_THROW(q.schedule_at(TimeUs{999}, [] {}), ContractViolation);
  EXPECT_THROW(q.schedule_in(TimeUs{-1}, [] {}), ContractViolation);
  EXPECT_THROW(q.schedule_at(TimeUs{2'000}, sim::EventFn{}),
               ContractViolation);
}

TEST(WiredContracts, RngRejectsDegenerateDistributions) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  sim::RngStream rng(7);
  EXPECT_THROW(rng.uniform_int(0), ContractViolation);
  EXPECT_THROW(rng.normal(0.0, -1.0), ContractViolation);
  EXPECT_THROW(rng.exponential(0.0), ContractViolation);
}

TEST(WiredContracts, DecoderConfigMustBeWellFormed) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  reader::UplinkDecoderConfig cfg;
  cfg.bit_duration_us = TimeUs{};
  EXPECT_THROW(reader::UplinkDecoder{cfg}, ContractViolation);
  cfg = reader::UplinkDecoderConfig{};
  cfg.preamble.clear();
  EXPECT_THROW(reader::UplinkDecoder{cfg}, ContractViolation);
  cfg = reader::UplinkDecoderConfig{};
  cfg.num_good_streams = 0;
  EXPECT_THROW(reader::UplinkDecoder{cfg}, ContractViolation);
}

TEST(WiredContracts, PhyDriftRejectsOutOfRangeStream) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  sim::RngStream rng(3);
  phy::ChannelDrift drift(phy::ChannelDrift::Params{}, rng.fork("d"));
  EXPECT_THROW(drift.at(phy::kNumAntennas, 0, TimeUs{}),
               ContractViolation);
  EXPECT_THROW(drift.at(0, phy::kNumSubchannels, TimeUs{}),
               ContractViolation);
  phy::ChannelDrift::Params bad;
  bad.antenna_tau_s = 0.0;
  EXPECT_THROW(phy::ChannelDrift(bad, rng.fork("b")), ContractViolation);
}

TEST(WiredContracts, HarvesterRejectsNonPhysicalBudgets) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  EXPECT_THROW(tag::incident_power_dbm(Dbm{30.0}, Meters{}),
               ContractViolation);
  tag::Harvester ok{tag::HarvesterParams{}};
  EXPECT_THROW(ok.sustainable_duty_cycle(-1.0, 10.0), ContractViolation);
  tag::HarvesterParams p;
  p.v_high = p.v_low;  // no capacitor swing: burst energy is undefined
  tag::Harvester flat{p};
  EXPECT_THROW(flat.burst_seconds(10.0, 1.0), ContractViolation);
}

}  // namespace
}  // namespace wb
