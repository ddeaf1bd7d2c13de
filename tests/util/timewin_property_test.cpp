// Property/fuzz tests for the time-window math and the incremental
// window-closure contract.
//
// For randomized day/epoch sequences these hold:
//   * every day lands in exactly one window per granularity,
//   * StreamingCnfBuilder's watermark closure is monotone — a window
//     never reopens (or re-emits) after emission, and a late clause for
//     an emitted window throws,
//   * flush() emits exactly the complement of what advance_watermark()
//     calls emitted: together they equal build_cnfs' batch output,
//     DIMACS-exact, on 1, 2, 3 and 7 lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sat/dimacs.h"
#include "tomo/cnf_builder.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timewin.h"

namespace ct::util {
namespace {

TEST(TimeWinProperty, EveryDayLandsInExactlyOneWindow) {
  Rng rng(20260730);
  for (int trial = 0; trial < 2000; ++trial) {
    const Day d = static_cast<Day>(rng.uniform_int(0, kDaysPerYear - 1));
    for (const Granularity g : kAllGranularities) {
      // Count windows covering d by brute force over the window range.
      int covering = 0;
      std::int32_t covering_w = -1;
      for (std::int32_t w = 0; w < window_count(kDaysPerYear, g); ++w) {
        if (window_start(w, g) <= d && d < window_start(w, g) + window_length(g)) {
          ++covering;
          covering_w = w;
        }
      }
      ASSERT_EQ(covering, 1) << "day " << d << " granularity " << to_string(g);
      EXPECT_EQ(covering_w, window_of(d, g));
    }
  }
}

TEST(TimeWinProperty, WindowsTileContiguously) {
  Rng rng(7);
  for (const Granularity g : kAllGranularities) {
    // Consecutive days change window exactly at window-length
    // boundaries, and the window index never decreases.
    std::int32_t prev = window_of(0, g);
    EXPECT_EQ(prev, 0);
    for (Day d = 1; d < kDaysPerYear; ++d) {
      const std::int32_t w = window_of(d, g);
      EXPECT_GE(w, prev);
      EXPECT_LE(w, prev + 1);
      if (w != prev) {
        EXPECT_EQ(d % window_length(g), 0);
      }
      prev = w;
    }
  }
}

}  // namespace
}  // namespace ct::util

namespace ct::tomo {
namespace {

using util::Day;
using util::Granularity;

/// URL ids of a synthetic stream are in [0, kStreamUrls).
constexpr std::int32_t kStreamUrls = 4;

/// A synthetic clause stream over a tiny path universe, sorted by day
/// (the canonical stream order a serial platform run produces).
struct SyntheticStream {
  PathPool pool;
  std::vector<PathClause> clauses;
};

SyntheticStream make_stream(util::Rng& rng, Day num_days) {
  SyntheticStream s;
  std::vector<PathPool::PathId> paths;
  for (topo::AsId base = 0; base < 6; ++base) {
    paths.push_back(s.pool.intern({base, static_cast<topo::AsId>(base + 1),
                                   static_cast<topo::AsId>((base + 3) % 7)}));
  }
  const int n = static_cast<int>(rng.uniform_int(40, 220));
  for (int i = 0; i < n; ++i) {
    PathClause c;
    c.path_id = paths[rng.index(paths.size())];
    c.url_id = static_cast<std::int32_t>(rng.uniform_int(0, kStreamUrls - 1));
    c.vantage = 99;
    c.day = static_cast<Day>(rng.uniform_int(0, num_days - 1));
    c.anomaly = static_cast<censor::Anomaly>(rng.uniform_int(0, censor::kNumAnomalies - 1));
    c.observed = rng.bernoulli(0.4);
    s.clauses.push_back(c);
  }
  std::stable_sort(s.clauses.begin(), s.clauses.end(),
                   [](const PathClause& a, const PathClause& b) { return a.day < b.day; });
  return s;
}

std::map<CnfKey, std::string> dimacs_by_key(const std::vector<TomoCnf>& cnfs) {
  std::map<CnfKey, std::string> out;
  for (const TomoCnf& tc : cnfs) {
    const auto [it, inserted] = out.emplace(tc.key, sat::to_dimacs_string(tc.cnf));
    EXPECT_TRUE(inserted) << "duplicate CNF key emitted";
  }
  return out;
}

TEST(StreamingWindowProperty, WatermarkPlusFlushEqualsBatchExactly) {
  util::Rng rng(20170623);
  const std::array<unsigned, 4> lane_counts{1, 2, 3, 7};
  std::vector<std::unique_ptr<util::ThreadPool>> lanes;
  for (const unsigned n : lane_counts) lanes.push_back(std::make_unique<util::ThreadPool>(n));
  for (int trial = 0; trial < 4 * 25; ++trial) {
    // Each lane count in turn, for the builder and the batch build.
    util::ThreadPool& threads = *lanes[static_cast<std::size_t>(trial) % lanes.size()];
    SCOPED_TRACE("threads " + std::to_string(threads.size()));
    const Day num_days = static_cast<Day>(rng.uniform_int(3, 70));
    const SyntheticStream s = make_stream(rng, num_days);
    const CnfBuildOptions options;

    StreamingCnfBuilder builder(s.pool, kStreamUrls, options, &threads);
    std::vector<TomoCnf> streamed;
    std::set<CnfKey> emitted_by_watermark;
    std::size_t i = 0;
    Day watermark = 0;
    while (i < s.clauses.size()) {
      // Feed a random run of clauses as one batch, then advance the
      // watermark to a random legal value (at most the next clause's
      // day, so windows still owed clauses never close early).
      const std::size_t run_end =
          std::min(s.clauses.size(), i + 1 + rng.index(10));
      builder.add(std::span(s.clauses).subspan(i, run_end - i));
      i = run_end;
      const Day next_day = i < s.clauses.size() ? s.clauses[i].day : num_days;
      if (rng.bernoulli(0.7)) {
        watermark = static_cast<Day>(rng.uniform_int(0, next_day));
        for (TomoCnf& tc : builder.advance_watermark(watermark)) {
          // Monotone closure: a window never re-emits.
          EXPECT_TRUE(emitted_by_watermark.insert(tc.key).second)
              << "window re-emitted after closure";
          // Watermark-emitted windows are genuinely complete.
          EXPECT_LE(util::window_start(tc.key.window, tc.key.granularity) +
                        util::window_length(tc.key.granularity),
                    watermark);
          streamed.push_back(std::move(tc));
        }
      }
    }
    std::vector<TomoCnf> flushed = builder.flush();
    for (const TomoCnf& tc : flushed) {
      // flush() emits exactly the complement of the watermark batches.
      EXPECT_FALSE(emitted_by_watermark.count(tc.key))
          << "flush re-emitted a closed window";
      streamed.push_back(tc);
    }

    // The union equals the batch build, DIMACS-exact.
    const std::vector<TomoCnf> batch = build_cnfs(s.pool, s.clauses, options, &threads);
    const auto streamed_map = dimacs_by_key(streamed);
    const auto batch_map = dimacs_by_key(batch);
    ASSERT_EQ(streamed_map.size(), batch_map.size()) << "trial " << trial;
    EXPECT_EQ(streamed_map, batch_map) << "trial " << trial;

    // Every clause landed in exactly one window per granularity: the
    // emitted keys for granularity g are exactly the distinct
    // (url, anomaly, window_of(day, g)) triples of the stream's positive
    // clauses (a window with no positive clause emits no CNF).
    std::set<CnfKey> expected_keys;
    for (const PathClause& c : s.clauses) {
      if (!c.observed) continue;
      for (const Granularity g : options.granularities) {
        CnfKey key;
        key.url_id = c.url_id;
        key.anomaly = c.anomaly;
        key.granularity = g;
        key.window = util::window_of(c.day, g);
        expected_keys.insert(key);
      }
    }
    std::set<CnfKey> streamed_keys;
    for (const auto& [key, dimacs] : streamed_map) streamed_keys.insert(key);
    EXPECT_EQ(streamed_keys, expected_keys);
  }
}

TEST(StreamingWindowProperty, LateClauseForEmittedWindowThrows) {
  util::Rng rng(42);
  const SyntheticStream s = make_stream(rng, 20);
  StreamingCnfBuilder builder(s.pool, kStreamUrls);
  for (const PathClause& c : s.clauses) {
    if (c.day < 10) builder.add(c);
  }
  builder.advance_watermark(10);
  EXPECT_EQ(builder.watermark(), 10);

  PathClause late = s.clauses.front();
  late.day = 9;  // window already closed
  EXPECT_THROW(builder.add(late), std::logic_error);
  // At the watermark itself is still legal.
  late.day = 10;
  EXPECT_NO_THROW(builder.add(late));
  // Lowering the watermark is a no-op, never a reopen.
  EXPECT_TRUE(builder.advance_watermark(5).empty());
  EXPECT_EQ(builder.watermark(), 10);
}

TEST(StreamingWindowProperty, OpenWindowCountIsBounded) {
  // After watermark w, open windows per (url, anomaly) are at most one
  // per granularity for the in-progress windows plus those not yet
  // emitted ahead of the watermark.
  util::Rng rng(11);
  const SyntheticStream s = make_stream(rng, 56);
  StreamingCnfBuilder builder(s.pool, kStreamUrls);  // all four granularities
  Day fed = 0;
  std::size_t i = 0;
  for (Day d = 0; d < 56; ++d) {
    for (; i < s.clauses.size() && s.clauses[i].day <= d; ++i) {
      builder.add(s.clauses[i]);
    }
    builder.advance_watermark(d + 1);
    fed = d + 1;
    // Every still-open window must extend past the watermark.
    // (Indirect check: advancing again with the same value emits
    // nothing, i.e. nothing complete is being held back.)
    EXPECT_TRUE(builder.advance_watermark(fed).empty());
  }
  builder.flush();
  EXPECT_EQ(builder.open_windows(), 0u);
}

}  // namespace
}  // namespace ct::tomo
