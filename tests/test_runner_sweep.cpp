#include "runner/sweep.h"

#include <cstddef>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiments.h"
#include "obs/report.h"
#include "runner/indexed_for.h"
#include "runner/seed_derive.h"
#include "sim/rng.h"

namespace wb::runner {
namespace {

// ------------------------------------------------------------ seed_derive

TEST(SeedDerive, Mix64MatchesSplitMix64Reference) {
  // mix64(x) is one SplitMix64 step from state x; the reference sequence
  // for state 0 starts 0xE220A8397B1DCDAF (Steele et al., appendix).
  EXPECT_EQ(mix64(0), 0xE220A8397B1DCDAFull);
  // And it is a compile-time function (used in constexpr context here).
  static_assert(mix64(0) != mix64(1), "mix64 must separate adjacent inputs");
}

TEST(SeedDerive, DistinctAcrossTaskIndices) {
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 10'000; ++i) {
    seen.insert(derive_seed(42, i));
  }
  EXPECT_EQ(seen.size(), 10'000u);
}

TEST(SeedDerive, DistinctAcrossBaseSeeds) {
  // The same task index under different base seeds must not collide —
  // otherwise two sweeps with different --seed would share randomness.
  std::set<std::uint64_t> seen;
  for (std::uint64_t base = 0; base < 1'000; ++base) {
    seen.insert(derive_seed(base, 7));
  }
  EXPECT_EQ(seen.size(), 1'000u);
}

TEST(SeedDerive, PureFunctionOfInputs) {
  EXPECT_EQ(derive_seed(1234, 56), derive_seed(1234, 56));
  EXPECT_NE(derive_seed(1234, 56), derive_seed(1234, 57));
  EXPECT_NE(derive_seed(1234, 56), derive_seed(1235, 56));
}

// ------------------------------------------------------------ SweepRunner

TEST(SweepRunner, ResolvesThreadCounts) {
  EXPECT_EQ(SweepRunner({1}).threads(), 1u);
  EXPECT_EQ(SweepRunner({5}).threads(), 5u);
  EXPECT_EQ(SweepRunner({0}).threads(), default_threads());
  EXPECT_EQ(SweepRunner().threads(), default_threads());
}

TEST(SweepRunner, EmptySweepIsFine) {
  auto res = SweepRunner({4}).run(
      0, [](const TaskContext&) { return 1; });
  EXPECT_TRUE(res.results.empty());
  EXPECT_EQ(res.metrics, nullptr);  // collect_metrics off by default
}

// A deterministic task: draws from an RNG seeded only by its own derived
// seed and records metrics. Any cross-task state sharing or misordered
// merge shows up as a value difference across thread counts.
double noisy_task(std::uint64_t base_seed, const TaskContext& ctx) {
  sim::RngStream rng(derive_seed(base_seed, ctx.task_index));
  double acc = 0.0;
  for (int i = 0; i < 1'000; ++i) acc += rng.uniform();
  if (auto* m = obs::metrics()) {
    m->counter("test.sweep.tasks_total").add();
    m->counter("test.sweep.draws_total").add(1'000);
    m->gauge("test.sweep.last_task_index")
        .set(static_cast<double>(ctx.task_index));
    m->histogram("test.sweep.acc_sum").record(acc);
  }
  return acc;
}

TEST(SweepRunner, BitIdenticalResultsAcrossThreadCounts) {
  constexpr std::size_t kTasks = 37;  // not a multiple of any worker count
  std::vector<std::vector<double>> per_thread_count;
  for (unsigned threads : {1u, 2u, 8u}) {
    SweepConfig cfg;
    cfg.threads = threads;
    per_thread_count.push_back(
        SweepRunner(cfg)
            .run(kTasks,
                 [](const TaskContext& ctx) { return noisy_task(7, ctx); })
            .results);
  }
  // Bit-identical, not approximately equal.
  EXPECT_EQ(per_thread_count[0], per_thread_count[1]);
  EXPECT_EQ(per_thread_count[0], per_thread_count[2]);
}

TEST(SweepRunner, MergedMetricsIdenticalAcrossThreadCounts) {
  constexpr std::size_t kTasks = 23;
  std::vector<std::string> reports;
  for (unsigned threads : {1u, 2u, 8u}) {
    SweepConfig cfg;
    cfg.threads = threads;
    cfg.collect_metrics = true;
    auto res = SweepRunner(cfg).run(
        kTasks, [](const TaskContext& ctx) { return noisy_task(11, ctx); });
    ASSERT_NE(res.metrics, nullptr);

    const auto snap = res.metrics->snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[1].first, "test.sweep.tasks_total");
    EXPECT_EQ(snap.counters[1].second, kTasks);
    EXPECT_EQ(snap.counters[0].second, kTasks * 1'000u);
    // Gauges are last-merge-wins; "last" is the highest task index
    // regardless of which worker finished last in wall-clock time.
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].second, static_cast<double>(kTasks - 1));

    // The full RunReport JSON (rows + attached metrics) must be
    // byte-identical across thread counts.
    obs::RunReport report;
    report.set_meta("base_seed", 11.0);
    report.set_meta("quick", true);
    for (std::size_t i = 0; i < res.results.size(); ++i) {
      report.add_row("task")
          .set("index", static_cast<double>(i))
          .set("acc", res.results[i]);
    }
    report.attach_metrics(*res.metrics);
    reports.push_back(report.to_json());
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
}

TEST(SweepRunner, RealUplinkGridIdenticalAcrossThreadCounts) {
  // End-to-end: a tiny Fig-10-shaped grid through the actual experiment
  // driver, compared bit-for-bit across thread counts.
  core::UplinkGridSpec spec;
  spec.base.runs = 1;
  spec.base.payload_bits = 24;
  spec.base.seed = 42;
  spec.distances_m = {0.05, 0.30};
  spec.packets_per_bit = {30};
  const auto grid = core::expand_uplink_grid(spec);
  ASSERT_EQ(grid.size(), 2u);

  std::vector<std::vector<double>> bers;
  for (unsigned threads : {1u, 2u, 8u}) {
    SweepConfig cfg;
    cfg.threads = threads;
    auto res = SweepRunner(cfg).run(
        grid.size(), [&grid](const TaskContext& ctx) {
          return core::measure_uplink_ber(grid[ctx.task_index].params)
              .ber_raw;
        });
    bers.push_back(res.results);
  }
  EXPECT_EQ(bers[0], bers[1]);
  EXPECT_EQ(bers[0], bers[2]);
}

TEST(SweepRunner, GridExpansionDerivesSeedsFromBase) {
  core::UplinkGridSpec spec;
  spec.base.seed = 42;
  spec.distances_m = {0.05, 0.30};
  spec.packets_per_bit = {30, 6};
  const auto grid = core::expand_uplink_grid(spec);
  ASSERT_EQ(grid.size(), 4u);
  for (const auto& pt : grid) {
    EXPECT_EQ(pt.params.seed, derive_seed(42, pt.index));
  }
  // Distance is the outer loop within a source, packets the inner one.
  EXPECT_EQ(grid[0].distance_m, Meters{0.05});
  EXPECT_EQ(grid[1].distance_m, Meters{0.05});
  EXPECT_EQ(grid[1].packets_per_bit, 6.0);
  EXPECT_EQ(grid[2].distance_m, Meters{0.30});
}

TEST(SweepRunner, LowestIndexExceptionWinsDeterministically) {
  for (unsigned threads : {1u, 4u}) {
    SweepConfig cfg;
    cfg.threads = threads;
    SweepRunner sweep(cfg);
    try {
      sweep.run(16, [](const TaskContext& ctx) -> int {
        if (ctx.task_index == 3 || ctx.task_index == 7) {
          throw std::runtime_error("task " +
                                   std::to_string(ctx.task_index));
        }
        return 0;
      });
      FAIL() << "sweep must rethrow a task exception";
    } catch (const std::runtime_error& e) {
      // Even when task 7 fails first in wall-clock time, the sweep
      // reports task 3 — failures are as deterministic as successes.
      EXPECT_STREQ(e.what(), "task 3");
    }
  }
}

}  // namespace
}  // namespace wb::runner
