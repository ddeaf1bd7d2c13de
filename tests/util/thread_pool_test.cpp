#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ct::util {
namespace {

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPool, WorkersForCapsRequestsAtTheHardware) {
  const unsigned hw = ThreadPool::hardware_threads();
  EXPECT_EQ(ThreadPool::workers_for(0), hw) << "0 = one worker per hardware thread";
  EXPECT_EQ(ThreadPool::workers_for(1), 1u);
  EXPECT_EQ(ThreadPool::workers_for(hw), hw);
  EXPECT_EQ(ThreadPool::workers_for(hw + 3), hw);
}

TEST(ThreadPool, DefaultSizeMatchesHardware) {
  ThreadPool pool;
  EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
}

TEST(ThreadPool, EachIndexRunsExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    constexpr std::size_t kCount = 257;  // not a multiple of any pool size
    std::vector<std::atomic<int>> runs(kCount);
    pool.for_each_index(kCount, [&](unsigned worker, std::size_t i) {
      EXPECT_LT(worker, threads);
      runs[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "index " << i << " with " << threads << " threads";
    }
  }
}

TEST(ThreadPool, ResultsByIndexAreDeterministic) {
  // Writing out[i] = f(i) must give identical vectors for any thread
  // count — the contract tomo::analyze_cnfs relies on.
  std::vector<std::vector<std::size_t>> results;
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::size_t> out(100);
    pool.for_each_index(out.size(),
                        [&](unsigned, std::size_t i) { out[i] = i * i + 7; });
    results.push_back(std::move(out));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(ThreadPool, ZeroCountIsNoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.for_each_index(0, [&](unsigned, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, FewerTasksThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.for_each_index(3, [&](unsigned, std::size_t i) {
    total.fetch_add(static_cast<int>(i) + 1);
  });
  EXPECT_EQ(total.load(), 6);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    const std::size_t count = 10 + static_cast<std::size_t>(round) * 7;
    pool.for_each_index(count, [&](unsigned, std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), count * (count - 1) / 2);
  }
}

TEST(ThreadPool, ImbalancedLoadStillRunsEverything) {
  // One pathologically slow task must not stop siblings from finishing
  // the rest of the batch (they steal it or work around it).
  ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.for_each_index(64, [&](unsigned, std::size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.for_each_index(16,
                            [&](unsigned, std::size_t i) {
                              if (i == 7) throw std::runtime_error("boom");
                            }),
        std::runtime_error);
    // The pool stays usable after a throwing job.
    std::atomic<int> ok{0};
    pool.for_each_index(16, [&](unsigned, std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 16);
  }
}

}  // namespace
}  // namespace ct::util
