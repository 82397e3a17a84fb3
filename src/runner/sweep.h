// SweepRunner: deterministic parallel execution of a declarative task grid.
//
// A sweep is N independent tasks (one experiment trial each), whose
// parameters — seeds included — the caller fixes before running them
// (derive_seed in seed_derive.h is the splittable scheme grids use). The
// runner
//   * executes tasks on for_each_index's fork-join threads (or inline on
//     the calling thread when threads == 1, preserving serial behaviour
//     exactly — no extra threads),
//   * slots every result by task index and merges the per-task
//     obs::MetricsRegistry and obs::ForensicsSink in ascending index
//     order (their merge_from defines each instrument's rule: sums,
//     peak-gauge max, last-write-wins gauges, capped exemplars), which is
//     what a serial run writing one shared registry would produce,
// so the combined output is bit-identical to the serial run and
// independent of thread count and scheduling (asserted by
// tests/test_runner_sweep.cpp at --threads 1/2/8).
//
// Tasks see the obs globals *thread-locally*: when metrics collection is
// on, each task runs under its own ScopedMetrics on its worker thread and
// the registries merge afterwards; a registry or tracer installed by the
// caller's thread is never written concurrently.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/forensics.h"
#include "obs/metrics.h"
#include "runner/indexed_for.h"

namespace wb::runner {

struct SweepConfig {
  /// Worker count; 0 means default_threads() (the hardware concurrency).
  /// 1 runs every task inline on the calling thread in index order.
  unsigned threads = 0;

  /// When true, each task runs under a fresh thread-locally installed
  /// MetricsRegistry and SweepResult::metrics holds the in-order merge.
  bool collect_metrics = false;

  /// When true, each task runs under a fresh thread-locally installed
  /// ForensicsSink and SweepResult::forensics holds the in-order merge.
  /// Any flight recorder installed on the calling thread is suppressed
  /// for the task's duration (even at threads == 1): recorder events
  /// interleave by completion order, so letting tasks share the caller's
  /// ring would make its contents depend on scheduling.
  bool collect_forensics = false;
};

/// What a task callable receives. The params a task actually sweeps over
/// live in the caller's expanded grid, indexed by `task_index`.
struct TaskContext {
  std::size_t task_index = 0;
};

template <typename R>
struct SweepResult {
  std::vector<R> results;  ///< results[i] is task i's return value
  /// In-order merge of the per-task registries; null unless
  /// SweepConfig::collect_metrics was set.
  std::unique_ptr<obs::MetricsRegistry> metrics;
  /// In-order merge of the per-task forensics sinks; null unless
  /// SweepConfig::collect_forensics was set.
  std::unique_ptr<obs::ForensicsSink> forensics;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig cfg = {})
      : cfg_(cfg),
        threads_(cfg.threads == 0 ? default_threads() : cfg.threads) {}

  /// The resolved worker count (never 0).
  unsigned threads() const noexcept { return threads_; }

  /// Runs fn(ctx) for task indices [0, num_tasks). `fn` must be
  /// const-callable from multiple threads at once (capture the expanded
  /// grid by const reference) and return a default-constructible value —
  /// results are slotted into a pre-sized vector by index. A throwing
  /// task aborts the sweep: the lowest-index exception is rethrown after
  /// all in-flight tasks drain, so failures are as deterministic as
  /// successes.
  template <typename Fn>
  auto run(std::size_t num_tasks, Fn&& fn)
      -> SweepResult<std::decay_t<std::invoke_result_t<Fn&, const TaskContext&>>> {
    using R = std::decay_t<std::invoke_result_t<Fn&, const TaskContext&>>;
    static_assert(!std::is_void_v<R>,
                  "sweep tasks must return a value (their measurement)");
    static_assert(!std::is_same_v<R, bool>,
                  "sweep tasks must not return bool: std::vector<bool> "
                  "bit-packs, so writing results[i] from parallel tasks "
                  "would race on shared bytes — return a struct or int");
    SweepResult<R> out;
    out.results.resize(num_tasks);
    std::vector<std::unique_ptr<obs::MetricsRegistry>> regs(
        cfg_.collect_metrics ? num_tasks : 0);
    std::vector<std::unique_ptr<obs::ForensicsSink>> sinks(
        cfg_.collect_forensics ? num_tasks : 0);

    for_each_index(threads_, num_tasks, [&](std::size_t i) {
      const TaskContext ctx{i};
      std::optional<obs::ScopedMetrics> metrics_guard;
      if (cfg_.collect_metrics) {
        regs[i] = std::make_unique<obs::MetricsRegistry>();
        metrics_guard.emplace(*regs[i]);
      }
      std::optional<obs::ScopedForensics> forensics_guard;
      std::optional<obs::ScopedFlightRecorder> recorder_guard;
      if (cfg_.collect_forensics) {
        sinks[i] = std::make_unique<obs::ForensicsSink>();
        forensics_guard.emplace(*sinks[i]);
        recorder_guard.emplace(nullptr);  // see SweepConfig::collect_forensics
      }
      out.results[i] = fn(ctx);
    });

    if (cfg_.collect_metrics) {
      out.metrics = std::make_unique<obs::MetricsRegistry>();
      for (const auto& reg : regs) out.metrics->merge_from(*reg);
    }
    if (cfg_.collect_forensics) {
      out.forensics = std::make_unique<obs::ForensicsSink>();
      for (const auto& sink : sinks) out.forensics->merge_from(*sink);
    }
    return out;
  }

 private:
  SweepConfig cfg_;
  unsigned threads_ = 1;
};

}  // namespace wb::runner
