#include "obs/forensics.h"

#include <cstddef>
#include <cstdio>
#include <numeric>
#include <utility>
#include <string>

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "obs/metrics.h"
#include "runner/seed_derive.h"
#include "runner/sweep.h"

namespace wb::obs {
namespace {

TEST(ForensicsSink, OffByDefault) {
  EXPECT_EQ(forensics(), nullptr);
}

TEST(ForensicsSink, ScopedInstallAndRestore) {
  ForensicsSink outer;
  {
    ScopedForensics g(outer);
    EXPECT_EQ(forensics(), &outer);
    {
      ForensicsSink inner;
      ScopedForensics g2(inner);
      EXPECT_EQ(forensics(), &inner);
    }
    EXPECT_EQ(forensics(), &outer);
  }
  EXPECT_EQ(forensics(), nullptr);
}

TEST(ForensicsSink, CountersUpholdTheStageInvariant) {
  ForensicsSink sink;
  for (int i = 0; i < 5; ++i) sink.record_attempt(DropStage::kUplinkDecoder);
  for (int i = 0; i < 3; ++i) sink.record_decode(DropStage::kUplinkDecoder);
  sink.record_drop(DropStage::kUplinkDecoder, DropReason::kLowSnr);
  sink.record_drop(DropStage::kUplinkDecoder, DropReason::kNoPreamble);

  EXPECT_EQ(sink.attempts(DropStage::kUplinkDecoder), 5u);
  EXPECT_EQ(sink.decodes(DropStage::kUplinkDecoder), 3u);
  EXPECT_EQ(sink.drops(DropStage::kUplinkDecoder, DropReason::kLowSnr), 1u);
  EXPECT_EQ(sink.drops(DropStage::kUplinkDecoder, DropReason::kNoPreamble),
            1u);
  EXPECT_EQ(sink.total_drops(DropStage::kUplinkDecoder), 2u);
  EXPECT_EQ(sink.attempts(DropStage::kUplinkDecoder),
            sink.decodes(DropStage::kUplinkDecoder) +
                sink.total_drops(DropStage::kUplinkDecoder));
  // Other stages untouched.
  EXPECT_EQ(sink.attempts(DropStage::kAckDetector), 0u);
  EXPECT_EQ(sink.total_drops(), 2u);
}

TEST(ForensicsSink, StableExportTokens) {
  EXPECT_STREQ(to_string(DropStage::kUplinkDecoder), "reader.uplink");
  EXPECT_STREQ(metric_token(DropStage::kUplinkDecoder), "reader_uplink");
  EXPECT_STREQ(to_string(DropStage::kWifiMac), "wifi.mac");
  EXPECT_STREQ(to_string(DropReason::kLowSnr), "low_snr");
  EXPECT_STREQ(to_string(DropReason::kDrainedIncomplete),
               "drained_incomplete");
  EXPECT_STREQ(to_string(DropStage::kIngest), "serve.ingest");
  EXPECT_STREQ(metric_token(DropStage::kIngest), "serve_ingest");
  EXPECT_STREQ(to_string(DropReason::kBackpressure), "backpressure");
}

TEST(ForensicsSink, DropMirrorsCounterIntoInstalledRegistry) {
  MetricsRegistry reg;
  ForensicsSink sink;
  {
    ScopedMetrics metrics_guard(reg);
    sink.record_drop(DropStage::kUplinkDecoder, DropReason::kLowSnr);
    sink.record_drop(DropStage::kUplinkDecoder, DropReason::kLowSnr);
    sink.record_drop(DropStage::kAckDetector, DropReason::kNoPreamble);
  }
  EXPECT_EQ(reg.counter("forensics.reader_uplink.low_snr_total").value(), 2u);
  EXPECT_EQ(reg.counter("forensics.reader_ack.no_preamble_total").value(),
            1u);
  // No registry installed: counting still works, no mirror, no crash.
  sink.record_drop(DropStage::kUplinkDecoder, DropReason::kLowSnr);
  EXPECT_EQ(sink.drops(DropStage::kUplinkDecoder, DropReason::kLowSnr), 3u);
  EXPECT_EQ(reg.counter("forensics.reader_uplink.low_snr_total").value(), 2u);
}

TEST(ForensicsSink, ExemplarCapGatesStorage) {
  ForensicsSink sink(2);
  const auto st = DropStage::kUplinkDecoder;
  const auto rs = DropReason::kLowSnr;
  EXPECT_TRUE(sink.wants_exemplar(st, rs));
  sink.add_exemplar(st, rs, "csv0");
  sink.add_exemplar(st, rs, "csv1");
  EXPECT_FALSE(sink.wants_exemplar(st, rs));
  sink.add_exemplar(st, rs, "csv2");  // ignored: slot full
  EXPECT_EQ(sink.num_exemplars(), 2u);
  // A different (stage, reason) cell has its own slot.
  EXPECT_TRUE(sink.wants_exemplar(st, DropReason::kCrcFail));
  sink.add_exemplar(st, DropReason::kCrcFail, "csv3");
  EXPECT_EQ(sink.num_exemplars(), 3u);
}

TEST(ForensicsSink, MergeAddsCountersAndReappliesExemplarCap) {
  ForensicsSink a(2);
  ForensicsSink b(2);
  a.record_attempt(DropStage::kUplinkDecoder);
  a.record_drop(DropStage::kUplinkDecoder, DropReason::kLowSnr);
  a.add_exemplar(DropStage::kUplinkDecoder, DropReason::kLowSnr, "a0");
  a.add_exemplar(DropStage::kUplinkDecoder, DropReason::kLowSnr, "a1");
  b.record_attempt(DropStage::kUplinkDecoder);
  b.record_attempt(DropStage::kUplinkDecoder);
  b.record_decode(DropStage::kUplinkDecoder);
  b.record_drop(DropStage::kUplinkDecoder, DropReason::kLowSnr);
  b.add_exemplar(DropStage::kUplinkDecoder, DropReason::kLowSnr, "b0");

  ForensicsSink merged(2);
  merged.merge_from(a);
  merged.merge_from(b);
  EXPECT_EQ(merged.attempts(DropStage::kUplinkDecoder), 3u);
  EXPECT_EQ(merged.decodes(DropStage::kUplinkDecoder), 1u);
  EXPECT_EQ(merged.drops(DropStage::kUplinkDecoder, DropReason::kLowSnr),
            2u);
  // a's two exemplars filled the merged cell; b's never entered. The
  // JSONL carries file refs, so verify the stored bytes via the sidecars.
  EXPECT_EQ(merged.num_exemplars(), 2u);
  const std::string prefix = ::testing::TempDir() + "wb_forensics_merge";
  EXPECT_EQ(merged.write_exemplars(prefix), 2u);
  for (const auto& [ordinal, want] :
       {std::pair<int, const char*>{0, "a0"}, {1, "a1"}}) {
    const std::string path = prefix + ".reader_uplink_low_snr." +
                             std::to_string(ordinal) + ".csv";
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << path;
    std::string content(16, '\0');
    content.resize(std::fread(content.data(), 1, content.size(), f));
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(content, want);
  }
}

TEST(ForensicsSink, JsonlListsEveryStageAndReasonEvenAtZero) {
  ForensicsSink sink;
  const std::string jsonl = sink.to_jsonl();
  for (std::size_t s = 0; s < kNumDropStages; ++s) {
    const std::string needle = std::string("\"stage\":\"") +
                               to_string(static_cast<DropStage>(s)) + "\"";
    EXPECT_NE(jsonl.find(needle), std::string::npos) << needle;
  }
  for (std::size_t r = 0; r < kNumDropReasons; ++r) {
    const std::string needle = std::string("\"reason\":\"") +
                               to_string(static_cast<DropReason>(r)) + "\"";
    EXPECT_NE(jsonl.find(needle), std::string::npos) << needle;
  }
}

TEST(ForensicsSink, JsonlIsDeterministicForIdenticalHistories) {
  auto build = [] {
    auto sink = std::make_unique<ForensicsSink>(2);
    sink->record_attempt(DropStage::kConditioning);
    sink->record_decode(DropStage::kConditioning);
    sink->record_attempt(DropStage::kUplinkDecoder);
    sink->record_drop(DropStage::kUplinkDecoder, DropReason::kLowSnr);
    sink->add_exemplar(DropStage::kUplinkDecoder, DropReason::kLowSnr,
                       "t_us,rssi\n0,1.0\n");
    return sink;
  };
  EXPECT_EQ(build()->to_jsonl(), build()->to_jsonl());
}

// --- Sweep determinism (the check.sh forensics gate, in-process) --------
//
// Runs the same 4-point uplink grid through SweepRunner at 1 and 8
// threads with forensics collection on. The per-task sinks merge in task
// index order, so the exported JSONL must be byte-identical, and the
// reader.uplink ledger must reconcile with what the experiment reported:
// every failed sync is exactly one low_snr drop.
struct SweepForensics {
  std::string jsonl;
  std::size_t failed_syncs = 0;
  std::uint64_t attempts = 0;
  std::uint64_t decodes = 0;
  std::uint64_t low_snr_drops = 0;
  std::uint64_t total_drops = 0;
};

SweepForensics run_sweep_at(unsigned threads) {
  runner::SweepConfig cfg;
  cfg.threads = threads;
  cfg.collect_forensics = true;
  runner::SweepRunner sweep(cfg);
  const auto res =
      sweep.run(4, [](const runner::TaskContext& ctx) -> std::size_t {
        core::UplinkExperimentParams p;
        p.runs = 2;
        p.payload_bits = 16;
        p.packets_per_bit = 10.0;
        // A sync score no window reaches (cf. bench_obs_overhead): every
        // run fails sync, so the grid is guaranteed to produce drops.
        p.sync_threshold = 0.99;
        p.tag_reader_distance_m =
            Meters{0.3 + 0.2 * static_cast<double>(ctx.task_index)};
        p.seed = runner::derive_seed(7, ctx.task_index);
        return core::measure_uplink_ber(p).failed_syncs;
      });
  SweepForensics out;
  out.failed_syncs =
      std::accumulate(res.results.begin(), res.results.end(), std::size_t{0});
  const ForensicsSink& fx = *res.forensics;
  out.jsonl = fx.to_jsonl();
  out.attempts = fx.attempts(DropStage::kUplinkDecoder);
  out.decodes = fx.decodes(DropStage::kUplinkDecoder);
  out.low_snr_drops =
      fx.drops(DropStage::kUplinkDecoder, DropReason::kLowSnr);
  out.total_drops = fx.total_drops(DropStage::kUplinkDecoder);
  return out;
}

TEST(ForensicsSweep, JsonlIsByteIdenticalAcrossThreadCounts) {
  const SweepForensics serial = run_sweep_at(1);
  const SweepForensics parallel = run_sweep_at(8);

  // The ledger reconciles: 4 tasks x 2 runs = 8 attempts, every failed
  // sync is exactly one low_snr drop, and the invariant closes.
  EXPECT_EQ(serial.attempts, 8u);
  EXPECT_GT(serial.failed_syncs, 0u);
  EXPECT_EQ(serial.low_snr_drops, serial.failed_syncs);
  EXPECT_EQ(serial.total_drops, serial.low_snr_drops);
  EXPECT_EQ(serial.attempts, serial.decodes + serial.total_drops);

  EXPECT_EQ(parallel.failed_syncs, serial.failed_syncs);
  EXPECT_EQ(parallel.jsonl, serial.jsonl);
}

}  // namespace
}  // namespace wb::obs
