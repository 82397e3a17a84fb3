// Reusable scratch storage for the reader decode hot path (DESIGN.md §10).
//
// Every experiment grid point and every streaming scan runs the same
// pipeline — conditioning, preamble correlation, MRC, thresholding — and
// each stage used to allocate its working vectors per call (90 CSI streams
// of per-packet doubles, fresh every decode). A DecodeWorkspace owns those
// buffers instead; the pipeline resizes them (capacity is kept) so a
// warmed-up workspace makes the whole decode allocation-free.
//
// Ownership rules:
//   * The workspace is plain scratch: no stage reads a buffer it did not
//     write in the same call, and nothing outlives the call that filled it
//     except capacity.
//   * One workspace per decoder *instance* per thread. Workspaces are not
//     thread-safe; parallel sweeps (wb::runner) use one per task, matching
//     the per-task MetricsRegistry pattern.
//   * Results written through the `*_into` APIs reuse the caller's result
//     vectors the same way (assign/clear keep capacity), so a reused
//     result object also stops allocating once warm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "reader/conditioning.h"
#include "util/units.h"
#include "wifi/capture.h"

namespace wb::reader {

struct DecodeWorkspace {
  // -- conditioning (condition_into, DESIGN.md §15) --
  /// The usable records, read in place by the centering kernel.
  std::vector<const wifi::CaptureRecord*> records;
  std::vector<double> row_sums;       ///< per-lane window-sum scratch
  /// Per-lane MAD steps (of 2^-kCenteredGridBits) of one kernel call,
  /// folded into 128-bit sums after each call.
  std::vector<std::int64_t> row_mad_steps;
  std::vector<double> row_mads;       ///< per-lane MAD divisors

  // -- frame sync (sync_search, slot_sync.h) --
  std::vector<double> corrs;             ///< per-stream preamble correlation

  // The search's phase grid, one block of kSyncBlock candidates at a time
  // (bounded by the block, not by the search length or step).
  std::vector<double> sync_corrs;        ///< [candidate][stream] corrs
  std::vector<std::size_t> sync_filled;  ///< filled slots per candidate
  /// First packet of each slot (slot_edges_into): the search's grid, or
  /// the coded decoder's current payload chip block.
  std::vector<std::size_t> sync_edges;
  /// Slot means of every stream lane, [grid slot][lane].
  std::vector<double> sync_means;
  std::vector<double> sync_lane_corrs;   ///< one candidate's lane chains
  /// Slots with at least one packet in the current sync_search candidate.
  std::size_t bin_filled = 0;
  std::vector<std::size_t> order;        ///< stream ranking scratch
  std::vector<std::size_t> best_streams; ///< selected streams of the best tau
  std::vector<double> best_polarity;     ///< their correlation signs

  // -- MRC + thresholding (decode_conditioned_into) --
  std::vector<double> y;    ///< combined signal over the frame interval
  std::vector<TimeUs> yt;   ///< its packet timestamps
  std::vector<int> votes_one;
  std::vector<int> votes_zero;
  std::vector<double> slot_sum;
  std::vector<int> slot_n;

  // -- whole-trace buffers reused across decodes --
  /// decode_into's conditioning output: the uplink decoder keeps only the
  /// span its search reads, the coded decoder the whole trace.
  ConditionedTrace conditioned;
  ConditionedTrace clipped;      ///< coded decoder's winsorised rows
};

}  // namespace wb::reader
