// Per-stream views of a row-major ConditionedTrace, for tests that build
// a trace one stream at a time or read one stream back.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "reader/conditioning.h"
#include "util/units.h"

namespace wb::reader::test {

/// A trace over `ts` whose stream s is `streams[s]` (one value per
/// timestamp), padding lanes 0.0.
inline ConditionedTrace from_columns(
    std::vector<TimeUs> ts, const std::vector<std::vector<double>>& streams) {
  ConditionedTrace ct;
  ct.resize(streams.size(), ts.size());
  ct.timestamps = std::move(ts);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (std::size_t k = 0; k < ct.num_packets(); ++k) {
      ct.at(k, s) = streams[s].at(k);
    }
  }
  return ct;
}

/// Stream s of `ct`, in packet order.
inline std::vector<double> column(const ConditionedTrace& ct,
                                  std::size_t s) {
  std::vector<double> xs(ct.num_packets());
  for (std::size_t k = 0; k < xs.size(); ++k) xs[k] = ct.at(k, s);
  return xs;
}

/// Every stream of `ct`: [stream][packet].
inline std::vector<std::vector<double>> columns(const ConditionedTrace& ct) {
  std::vector<std::vector<double>> out(ct.num_streams());
  for (std::size_t s = 0; s < out.size(); ++s) out[s] = column(ct, s);
  return out;
}

}  // namespace wb::reader::test
