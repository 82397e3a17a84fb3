#include "runner/indexed_for.h"

#include <atomic>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace wb::runner {
namespace {

TEST(DefaultThreads, AtLeastOne) {
  EXPECT_GE(default_threads(), 1u);
}

TEST(IndexedFor, RunsEveryIndexExactlyOnce) {
  for (const unsigned workers : {0u, 1u, 2u, 8u}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}, std::size_t{100}}) {
      SCOPED_TRACE("workers " + std::to_string(workers) + " n " +
                   std::to_string(n));
      std::vector<std::atomic<int>> hits(n);
      for_each_index(workers, n,
                     [&hits](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
    }
  }
}

TEST(IndexedFor, InlinePathRunsOnCallerInIndexOrder) {
  // workers <= 1, or a single task, runs on the calling thread in order.
  const struct {
    unsigned workers;
    std::size_t n;
  } cases[] = {{0u, 5}, {1u, 5}, {8u, 1}};
  for (const auto& c : cases) {
    std::vector<std::size_t> order;
    std::vector<std::thread::id> ids;
    for_each_index(c.workers, c.n, [&](std::size_t i) {
      order.push_back(i);
      ids.push_back(std::this_thread::get_id());
    });
    ASSERT_EQ(order.size(), c.n);
    for (std::size_t i = 0; i < c.n; ++i) {
      EXPECT_EQ(order[i], i);
      EXPECT_EQ(ids[i], std::this_thread::get_id());
    }
  }
}

TEST(IndexedFor, ParallelPathNeverRunsOnCaller) {
  // The caller only joins: no task may see its thread-local metrics,
  // tracer or flight recorder.
  for (const unsigned workers : {2u, 8u}) {
    std::mutex mu;
    std::vector<std::thread::id> ids;
    for_each_index(workers, 64, [&mu, &ids](std::size_t) {
      const std::lock_guard<std::mutex> lock(mu);
      ids.push_back(std::this_thread::get_id());
    });
    ASSERT_EQ(ids.size(), 64u);
    for (const std::thread::id id : ids) {
      EXPECT_NE(id, std::this_thread::get_id());
    }
  }
}

TEST(IndexedFor, WorkIsActuallyDistributedWhenWorkersBlock) {
  // Two tasks that each wait for the other to start can only finish if
  // two distinct threads pick them up — a serial loop would deadlock
  // (guarded by the surrounding ctest timeout).
  std::atomic<int> started{0};
  for_each_index(2, 2, [&started](std::size_t) {
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
  });
  EXPECT_EQ(started.load(), 2);
}

TEST(IndexedFor, ThrowingTaskRunsSiblingsAndRethrowsLowestIndex) {
  // Index 7 throws first (index 3 waits for it), yet index 3's exception
  // is the one rethrown, and every other index still runs.
  constexpr std::size_t kTasks = 20;
  std::vector<std::atomic<int>> hits(kTasks);
  std::atomic<bool> seven_threw{false};
  try {
    for_each_index(4, kTasks, [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 7) {
        seven_threw.store(true);
        throw std::runtime_error("task 7");
      }
      if (i == 3) {
        while (!seven_threw.load()) std::this_thread::yield();
        throw std::runtime_error("task 3");
      }
    });
    ADD_FAILURE() << "for_each_index swallowed the task exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "task 3");
  }
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

}  // namespace
}  // namespace wb::runner
