// Deterministic, order-aware merging of per-task sweep outputs.
//
// Parallel tasks complete in a scheduling-dependent order; everything the
// caller observes must not. The rule everywhere in this module is: merge
// in ascending task-index order, which makes the combined output equal to
// what a serial run with one shared registry/report would have produced
// (counters and histograms are commutative sums; peak gauges — ones
// updated via Gauge::max_of — combine with max; plain gauges are
// last-write-wins, and "last" in task-index order is exactly the serial
// "last").
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "obs/forensics.h"
#include "obs/metrics.h"

namespace wb::runner {

/// Merges `parts[0], parts[1], ...` into `dest` in that order (parts[i]
/// holds task i's registry; null entries are skipped — a task that was
/// run without metrics collection). Returns the number of registries
/// merged. See obs::MetricsRegistry::merge_from for per-instrument
/// semantics.
std::size_t merge_metrics_in_order(
    obs::MetricsRegistry& dest,
    const std::vector<std::unique_ptr<obs::MetricsRegistry>>& parts);

/// Merges per-task forensics sinks into `dest` in task-index order
/// (counters are commutative sums; exemplars append in task order and
/// re-apply dest's per-cell cap, so the survivors are the lowest-index
/// tasks' — exactly the serial outcome). Null entries are skipped.
/// Returns the number of sinks merged.
std::size_t merge_forensics_in_order(
    obs::ForensicsSink& dest,
    const std::vector<std::unique_ptr<obs::ForensicsSink>>& parts);

}  // namespace wb::runner
