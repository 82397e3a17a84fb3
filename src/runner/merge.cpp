#include "runner/merge.h"

namespace wb::runner {

std::size_t merge_metrics_in_order(
    obs::MetricsRegistry& dest,
    const std::vector<std::unique_ptr<obs::MetricsRegistry>>& parts) {
  std::size_t merged = 0;
  for (const auto& part : parts) {
    if (part == nullptr) continue;
    dest.merge_from(*part);
    ++merged;
  }
  return merged;
}

std::size_t merge_forensics_in_order(
    obs::ForensicsSink& dest,
    const std::vector<std::unique_ptr<obs::ForensicsSink>>& parts) {
  std::size_t merged = 0;
  for (const auto& part : parts) {
    if (part == nullptr) continue;
    dest.merge_from(*part);
    ++merged;
  }
  return merged;
}

}  // namespace wb::runner
