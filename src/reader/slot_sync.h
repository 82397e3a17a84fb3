// The reader's one slot binner and one sync search kernel (paper §3.2
// step 1, §3.4). The plain decoder, the coded decoder and the ACK
// detector all find their known pattern the same way: at every candidate
// start, bin each stream's packets into bit (or chip) slots by timestamp,
// correlate the slot means with the pattern's +-1 template, and keep the
// streams that correlate best.
//
// sync_search runs a whole search on a phase grid (DESIGN.md §10).
// Candidate starts whose slot boundaries coincide share their slots, so
// a block of candidates bins and sums each slot once instead of once per
// candidate that covers it. It reads the conditioned trace's rows across
// their stream lanes, a pack of streams at a time, and every lane replays
// one stream's scalar chains: each slot sum is still the packet-order
// chain 0.0 + x0 + x1 + ... that a lone probe of one candidate computes,
// so each candidate's result is bit-identical to probing it alone, one
// stream at a time.
//
// slot_edges_into is the one binner: it finds each slot's first packet,
// and a slot's mean is the sum of its packets in packet order, from 0.0,
// divided once by their count. The search's grid bins on it, and so does
// the coded decoder's payload correlation, once per chip block.
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

/// Bins the slots [origin + m*slot_us, origin + (m+1)*slot_us), m in
/// [0, nslots), of the sorted timestamps `ts`: slot m holds the packets
/// [edges[m], edges[m + 1]). Resizes `edges` to nslots + 1 (capacity is
/// kept, so a warm vector does not allocate).
void slot_edges_into(const std::vector<TimeUs>& ts, TimeUs origin_us,
                     TimeUs slot_us, std::size_t nslots,
                     std::vector<std::size_t>& edges);

/// Candidates that sync_search bins and ranks in one pass. It bounds the
/// search's workspace scratch whatever the search length and step:
/// ws.sync_corrs holds at most kSyncBlock x streams correlations,
/// ws.sync_filled kSyncBlock counts, ws.sync_means the lane means of at
/// most kSyncBlock x tmpl.size() slots and ws.sync_edges one more entry
/// than that.
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
