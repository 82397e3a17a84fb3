// Frame sync's one slot-binning path and one correlate-and-rank kernel
// (paper §3.2 step 1, §3.4). The plain decoder, the coded decoder and the
// ACK detector all find their known pattern the same way: bin each
// stream's packets into bit (or chip) slots by timestamp, correlate the
// slot means with the pattern's +-1 template, and keep the streams that
// correlate best.
//
// Binning is split in two (DESIGN.md §10). The timestamp->slot map and
// the per-slot packet counts depend only on the shared timestamps, so
// bin_window_into computes them once per candidate window;
// bin_stream_sums_into then accumulates one stream's per-slot sums with a
// single contiguous pass, in packet order, so sum/count is the slot mean.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "reader/conditioning.h"
#include "reader/decode_workspace.h"
#include "util/units.h"

namespace wb::reader {

/// First packet index with timestamp >= t_us.
inline std::size_t lower_index(const std::vector<TimeUs>& ts, TimeUs t_us) {
  return static_cast<std::size_t>(
      std::lower_bound(ts.begin(), ts.end(), t_us) - ts.begin());
}

/// Prepare the shared slot map for [start, start + nslots*slot_us) into
/// ws.bin_slot_of / ws.bin_count / ws.bin_first / ws.bin_nslots /
/// ws.bin_filled.
void bin_window_into(const ConditionedTrace& ct, TimeUs start_us,
                     TimeUs slot_us, std::size_t nslots, DecodeWorkspace& ws);

/// Per-slot sums of `stream` (into ws.bin_sums) over the window prepared
/// by the last bin_window_into on `ws`.
void bin_stream_sums_into(const ConditionedTrace& ct, std::size_t stream,
                          DecodeWorkspace& ws);

/// One sync probe at `start_us`: bins every stream into tmpl.size() slots
/// of `slot_us`, writes each stream's correlation of its slot means with
/// the +-1.0 template, divided by the number of filled slots, into
/// ws.corrs, and ranks the streams by |corr| so that ws.order[0..g) holds
/// the top g. When fewer than `min_filled` slots (or none) hold a packet,
/// every correlation is 0. Returns the mean |corr| of the top g streams;
/// ws.bin_filled keeps the probe's filled-slot count.
double correlate_and_rank(const ConditionedTrace& ct,
                          std::span<const double> tmpl, TimeUs start_us,
                          TimeUs slot_us, double min_filled, std::size_t g,
                          DecodeWorkspace& ws);

}  // namespace wb::reader
