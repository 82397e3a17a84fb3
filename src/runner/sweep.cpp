#include "runner/sweep.h"

#include "runner/indexed_for.h"

namespace wb::runner {

SweepRunner::SweepRunner(SweepConfig cfg) : cfg_(cfg) {
  threads_ = cfg_.threads == 0 ? default_threads() : cfg_.threads;
}

void SweepRunner::run_indexed(
    std::size_t num_tasks, const std::function<void(std::size_t)>& task) {
  for_each_index(threads_, num_tasks, task);
}

}  // namespace wb::runner
