// Deterministic indexed parallel-for: the execution engine underneath
// SweepRunner, exposed so other fan-out layers (wb::serve's per-session
// dispatch) share one scheduling policy instead of growing their own
// threads. This is the only place in the codebase that creates threads:
// wb_analyze's no-raw-thread rule forbids raw std::thread / std::async
// outside src/runner/, so parallelism stays behind this API.
//
// Contract (SweepRunner::run runs its tasks through it):
//   * workers <= 1 or num_tasks <= 1 runs every task inline on the
//     calling thread in ascending index order — no extra threads, serial
//     behaviour preserved exactly;
//   * otherwise min(workers, num_tasks) fresh threads claim indices from
//     one shared counter, and the calling thread only joins them. No task
//     runs on the caller's thread, so none sees the caller's thread-local
//     metrics registry, tracer or flight recorder;
//   * a throwing task does not abort its siblings — after every task has
//     run, the *lowest-index* exception is rethrown, so failures are as
//     deterministic as successes;
//   * if a thread cannot be started, the threads already running are
//     joined (they run whatever tasks are left) and the start error is
//     rethrown.
#pragma once

#include <cstddef>
#include <functional>

namespace wb::runner {

/// Number of workers to use when the caller does not say: the hardware
/// concurrency, with a floor of 1 (hardware_concurrency() may return 0).
unsigned default_threads() noexcept;

/// Runs task(i) for every i in [0, num_tasks). `task` must be safe to
/// invoke concurrently for distinct indices (shared state only via its
/// own synchronisation); per-index state needs none.
void for_each_index(unsigned workers, std::size_t num_tasks,
                    const std::function<void(std::size_t)>& task);

}  // namespace wb::runner
