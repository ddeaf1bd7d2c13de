#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
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
  // the rest of the batch (they claim the other chunks).
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

TEST(ThreadPool, ChunkBoundariesRunEveryIndexOnce) {
  // Counts on both sides of the points where the chunk size changes and
  // the last chunk is partial, twice over on each pool (reuse).
  for (const unsigned threads : {2u, 3u, 4u}) {
    ThreadPool pool(threads);
    const std::size_t n = pool.size();
    for (int round = 0; round < 2; ++round) {
      for (const std::size_t count :
           {std::size_t{1}, n - 1, n, 8 * n - 1, 8 * n, 8 * n + 1, std::size_t{10007}}) {
        SCOPED_TRACE(std::to_string(threads) + " workers, round " + std::to_string(round) +
                     ", count " + std::to_string(count));
        std::vector<std::atomic<int>> runs(count);
        std::atomic<bool> worker_in_range{true};
        pool.for_each_index(count, [&](unsigned worker, std::size_t i) {
          if (worker >= threads) worker_in_range = false;
          runs[i].fetch_add(1);
        });
        EXPECT_TRUE(worker_in_range.load());
        std::size_t wrong = 0;
        for (std::size_t i = 0; i < count; ++i) wrong += runs[i].load() == 1 ? 0 : 1;
        EXPECT_EQ(wrong, 0u) << "indices not run exactly once";
      }
    }
  }
}

TEST(ThreadPool, ThrowInAMiddleChunkStopsNewClaims) {
  // 10,007 indices on 4 workers: 33 chunks of 312 (the last of 23),
  // claimed in ascending order.  Index `bad`, in the middle of chunk 16,
  // throws.  Its worker runs nothing after it; the others finish the
  // chunk they hold and claim no more, so the last chunk never starts
  // (each chunk start sleeps 2 ms, so the others cannot race through the
  // 16 chunks left while the throw unwinds).  The caller sees the
  // exception once, and the pool runs the next job in full.
  constexpr std::size_t kCount = 10007;
  ThreadPool pool(4);
  const std::size_t chunk = kCount / (8 * pool.size());  // the claim size
  ASSERT_EQ(chunk, 312u);
  const std::size_t bad = 16 * chunk + chunk / 2;
  std::vector<std::atomic<int>> runs(kCount);
  int caught = 0;
  try {
    pool.for_each_index(kCount, [&](unsigned, std::size_t i) {
      if (i % chunk == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      runs[i].fetch_add(1);
      if (i == bad) throw std::runtime_error("bad index");
    });
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_STREQ(e.what(), "bad index");
  }
  EXPECT_EQ(caught, 1);
  for (std::size_t i = 0; i <= bad; i += chunk) {
    EXPECT_EQ(runs[i].load(), 1) << "chunk start " << i << " before the throw";
  }
  for (std::size_t i = bad + 1; i < 17 * chunk; ++i) {
    ASSERT_EQ(runs[i].load(), 0) << "index " << i << " ran after its chunk threw";
  }
  for (std::size_t i = 32 * chunk; i < kCount; ++i) {
    ASSERT_EQ(runs[i].load(), 0) << "the last chunk was claimed after the throw";
  }

  std::vector<std::atomic<int>> again(kCount);
  pool.for_each_index(kCount, [&](unsigned, std::size_t i) { again[i].fetch_add(1); });
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < kCount; ++i) wrong += again[i].load() == 1 ? 0 : 1;
  EXPECT_EQ(wrong, 0u) << "the pool did not recover from the throw";
}

}  // namespace
}  // namespace ct::util
