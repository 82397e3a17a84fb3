#include "runner/indexed_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace wb::runner {

unsigned default_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

void for_each_index(unsigned workers, std::size_t num_tasks,
                    const std::function<void(std::size_t)>& task) {
  if (workers <= 1 || num_tasks <= 1) {
    // Serial path: the calling thread, in index order — exactly what the
    // pre-runner benches did, with no thread start-up cost.
    for (std::size_t i = 0; i < num_tasks; ++i) task(i);
    return;
  }

  // Fork-join: each thread claims the next unrun index until none is
  // left. Every errors[i] is written by the one thread that ran task i and
  // read only after the joins.
  std::vector<std::exception_ptr> errors(num_tasks);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < num_tasks;
         i = next.fetch_add(1)) {
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t spawn = std::min<std::size_t>(workers, num_tasks);
  std::vector<std::thread> threads;
  threads.reserve(spawn);
  try {
    for (std::size_t t = 0; t < spawn; ++t) threads.emplace_back(work);
  } catch (...) {
    // A thread failed to start. Those that did still claim indices until
    // none is left; join them before `work`'s captures go out of scope,
    // then report the failed start.
    for (std::thread& t : threads) t.join();
    throw;
  }
  for (std::thread& t : threads) t.join();
  // Deterministic failure: rethrow the lowest task index's exception, not
  // whichever thread happened to fail first.
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace wb::runner
