// Frame sync's one slot-binning path and one search kernel (paper §3.2
// step 1, §3.4). The plain decoder, the coded decoder and the ACK
// detector all find their known pattern the same way: at every candidate
// start, bin each stream's packets into bit (or chip) slots by timestamp,
// correlate the slot means with the pattern's +-1 template, and keep the
// streams that correlate best.
//
// sync_search runs a whole search on a phase grid (DESIGN.md §10).
// Candidate starts whose slot boundaries coincide share their slots, so
// a block of candidates bins and sums each slot once instead of once per
// candidate that covers it. Every slot sum is still the packet-order
// chain 0.0 + x0 + x1 + ... that a lone probe of one candidate computes,
// so each candidate's result is bit-identical to probing it alone.
//
// bin_window_into / bin_stream_sums_into bin one window at a time: the
// timestamp->slot map and per-slot counts once per window, then one
// stream's per-slot sums in a single contiguous pass. The coded decoder's
// payload correlation uses them per chip block.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
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

/// Candidates that sync_search bins and ranks in one pass. It bounds the
/// search's workspace scratch whatever the search length and step:
/// ws.sync_corrs holds at most kSyncBlock x streams correlations,
/// ws.sync_filled kSyncBlock counts, ws.sync_means kSyncBlock x
/// tmpl.size() slot means and ws.sync_edges one more entry than that.
inline constexpr std::size_t kSyncBlock = 64;

/// Non-owning reference to the callable that sync_search hands each
/// candidate: `void(TimeUs start_us, double score)`.
class SyncVisitor {
 public:
  template <class F, class = std::enable_if_t<
                         !std::is_same_v<std::decay_t<F>, SyncVisitor>>>
  SyncVisitor(F&& f)
      : obj_(std::addressof(f)),
        call_([](void* obj, TimeUs start_us, double score) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(start_us, score);
        }) {}

  void operator()(TimeUs start_us, double score) const {
    call_(obj_, start_us, score);
  }

 private:
  void* obj_;
  void (*call_)(void*, TimeUs, double);
};

/// One sync search over the candidate starts from_us, from_us + step_us,
/// ... up to and including to_us (none when to_us < from_us); a single
/// start is the search from_us == to_us. Each candidate's window is
/// tmpl.size() slots of slot_us. For every candidate, in start order,
/// `on_candidate(start_us, score)` runs while
///   * ws.corrs holds each stream's correlation of its slot means with the
///     +-1.0 template, divided by the number of filled slots (all 0 when
///     fewer than `min_filled` slots, or none, hold a packet);
///   * ws.order[0..g) ranks the top g streams by |corr|;
///   * ws.bin_filled holds the candidate's filled-slot count;
/// and `score` is the mean |corr| of those top g streams.
void sync_search(const ConditionedTrace& ct, std::span<const double> tmpl,
                 TimeUs slot_us, double min_filled, std::size_t g,
                 TimeUs from_us, TimeUs to_us, TimeUs step_us,
                 DecodeWorkspace& ws, SyncVisitor on_candidate);

}  // namespace wb::reader
