#include "util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ugs {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    constexpr std::size_t kTasks = 1000;
    std::vector<std::atomic<int>> hits(kTasks);
    pool.ParallelFor(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads "
                                   << threads;
    }
  }
}

TEST(ThreadPoolTest, ZeroTasksIsANoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SingleThreadRunsInOrderOnCallingThread) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.ParallelFor(16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ReusableAcrossLoops) {
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.ParallelFor(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 100u * 99u / 2u);
  }
}

TEST(ThreadPoolTest, NestedParallelForCompletesWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(8 * 8);
  pool.ParallelFor(8, [&](std::size_t outer) {
    // A nested loop on the same (busy) pool must not deadlock: it is its
    // own task group, drained by its caller plus any worker that frees
    // up, and every index still runs exactly once.
    pool.ParallelFor(8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

TEST(ThreadPoolTest, ConcurrentLoopsFromTwoDriversInterleaveCorrectly) {
  // Two non-pool threads each drive a loop on the same pool at the same
  // time -- the overlap the executor exists for (impossible under the
  // old one-loop-at-a-time discipline, where the second driver parked on
  // a mutex). Both loops must complete with every index run exactly
  // once, and the outputs must be bit-identical to serial runs.
  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    constexpr std::size_t kTasks = 400;
    std::vector<double> expected_a(kTasks), expected_b(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
      expected_a[i] = static_cast<double>(i) * 3.0 + 1.0;
      expected_b[i] = static_cast<double>(i) * 7.0 + 2.0;
    }
    std::vector<double> got_a(kTasks, 0.0), got_b(kTasks, 0.0);
    std::vector<std::atomic<int>> hits_a(kTasks), hits_b(kTasks);
    std::thread driver_a([&] {
      pool.ParallelFor(kTasks, [&](std::size_t i) {
        hits_a[i].fetch_add(1);
        got_a[i] = static_cast<double>(i) * 3.0 + 1.0;
      });
    });
    std::thread driver_b([&] {
      pool.ParallelFor(kTasks, [&](std::size_t i) {
        hits_b[i].fetch_add(1);
        got_b[i] = static_cast<double>(i) * 7.0 + 2.0;
      });
    });
    driver_a.join();
    driver_b.join();
    for (std::size_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(hits_a[i].load(), 1) << "loop a index " << i;
      ASSERT_EQ(hits_b[i].load(), 1) << "loop b index " << i;
    }
    EXPECT_EQ(got_a, expected_a) << threads << " threads";
    EXPECT_EQ(got_b, expected_b) << threads << " threads";
  }
}

TEST(ThreadPoolTest, ManyOverlappingLoopsAllComplete) {
  // A burst of drivers (more than the pool is wide) all loop at once;
  // per-group completion must never cross wires between groups.
  ThreadPool pool(4);
  constexpr int kDrivers = 8;
  constexpr std::size_t kTasks = 200;
  std::vector<std::vector<std::atomic<int>>> hits(kDrivers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kTasks);
  }
  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      pool.ParallelFor(kTasks, [&, d](std::size_t i) {
        hits[static_cast<std::size_t>(d)][i].fetch_add(1);
      });
    });
  }
  for (std::thread& driver : drivers) driver.join();
  for (int d = 0; d < kDrivers; ++d) {
    for (std::size_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(d)][i].load(), 1)
          << "driver " << d << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

TEST(ThreadPoolTest, ManyMoreTasksThanThreads) {
  ThreadPool pool(8);
  constexpr std::size_t kTasks = 10000;
  std::atomic<std::size_t> sum{0};
  pool.ParallelFor(kTasks, [&](std::size_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), kTasks * (kTasks + 1) / 2);
}

}  // namespace
}  // namespace ugs
