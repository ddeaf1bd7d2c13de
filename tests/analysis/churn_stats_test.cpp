#include "analysis/churn_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "../support/fuzz_seed.h"
#include "expect_churn.h"
#include "topo/generator.h"
#include "util/rng.h"
#include "util/serde.h"

namespace ct::analysis {
namespace {

using test::expect_churn_equal;

topo::AsGraph tiny_graph() {
  topo::TopologyConfig cfg;
  cfg.num_ases = 30;
  cfg.num_tier1 = 2;
  cfg.num_transit = 6;
  cfg.num_countries = 4;
  return topo::generate_topology(cfg, 2);
}

TEST(PathChurnTracker, CountsDistinctPathsPerWindow) {
  const auto g = tiny_graph();
  const std::vector<topo::AsId> vps{10};
  const std::vector<topo::AsId> dests{20};
  // 14 days, 1 epoch each.
  PathChurnTracker tracker(g, vps, dests, 14, 1);
  // Week 0: path A all days.  Week 1: alternates A/B.
  const std::vector<topo::AsId> path_a{10, 5, 20};
  const std::vector<topo::AsId> path_b{10, 6, 20};
  for (util::Day d = 0; d < 7; ++d) tracker.on_path(d, 0, 10, 20, path_a);
  for (util::Day d = 7; d < 14; ++d) tracker.on_path(d, 0, 10, 20, d % 2 ? path_a : path_b);

  const ChurnStats stats = tracker.compute();
  // Day windows: 14 samples, all with exactly 1 path.
  const auto& day = stats.distinct_paths.at(util::Granularity::kDay);
  EXPECT_EQ(day.total(), 14);
  EXPECT_EQ(day.count(1), 14);
  EXPECT_DOUBLE_EQ(stats.changed_fraction.at(util::Granularity::kDay), 0.0);
  // Week windows: week 0 has 1 distinct, week 1 has 2.
  const auto& week = stats.distinct_paths.at(util::Granularity::kWeek);
  EXPECT_EQ(week.total(), 2);
  EXPECT_EQ(week.count(1), 1);
  EXPECT_EQ(week.count(2), 1);
  EXPECT_DOUBLE_EQ(stats.changed_fraction.at(util::Granularity::kWeek), 0.5);
  EXPECT_EQ(tracker.distinct_paths_of_pair(10, 20), 2);
}

TEST(PathChurnTracker, IntradayChurnVisibleWithEpochs) {
  const auto g = tiny_graph();
  PathChurnTracker tracker(g, {10}, {20}, 1, 3);
  tracker.on_path(0, 0, 10, 20, {10, 5, 20});
  tracker.on_path(0, 1, 10, 20, {10, 6, 20});
  tracker.on_path(0, 2, 10, 20, {10, 5, 20});
  const ChurnStats stats = tracker.compute();
  EXPECT_DOUBLE_EQ(stats.changed_fraction.at(util::Granularity::kDay), 1.0);
  EXPECT_EQ(stats.distinct_paths.at(util::Granularity::kDay).count(2), 1);
}

TEST(PathChurnTracker, UnreachableEpochsSkipped) {
  const auto g = tiny_graph();
  PathChurnTracker tracker(g, {10}, {20}, 2, 1);
  tracker.on_path(0, 0, 10, 20, {});  // unreachable
  tracker.on_path(1, 0, 10, 20, {10, 5, 20});
  const ChurnStats stats = tracker.compute();
  // Day 0 has no observation: only one day sample.
  EXPECT_EQ(stats.distinct_paths.at(util::Granularity::kDay).total(), 1);
  EXPECT_EQ(tracker.distinct_paths_of_pair(10, 20), 1);
}

TEST(PathChurnTracker, UnknownPairsIgnored) {
  const auto g = tiny_graph();
  PathChurnTracker tracker(g, {10}, {20}, 1, 1);
  tracker.on_path(0, 0, 11, 20, {11, 20});  // unknown vantage
  tracker.on_path(0, 0, 10, 21, {10, 21});  // unknown dest
  EXPECT_EQ(tracker.distinct_paths_of_pair(10, 20), 0);
  EXPECT_EQ(tracker.distinct_paths_of_pair(11, 20), 0);
}

TEST(PathChurnTracker, OutOfRangeSlotsIgnored) {
  const auto g = tiny_graph();
  PathChurnTracker tracker(g, {10}, {20}, 1, 1);
  tracker.on_path(5, 0, 10, 20, {10, 20});   // day out of range
  tracker.on_path(0, 3, 10, 20, {10, 20});   // epoch out of range
  EXPECT_EQ(tracker.distinct_paths_of_pair(10, 20), 0);
}

TEST(PathChurnTracker, ChurnByDestClass) {
  const auto g = tiny_graph();
  // Pick two stub dests of different classes if available; fall back to
  // same class (the test then only checks totals).
  const auto stubs = g.ases_with_tier(topo::AsTier::kStub);
  ASSERT_GE(stubs.size(), 2u);
  const topo::AsId d1 = stubs[0], d2 = stubs[1];
  PathChurnTracker tracker(g, {10}, {d1, d2}, 2, 1);
  // d1: stable path; d2: changes.
  tracker.on_path(0, 0, 10, d1, {10, d1});
  tracker.on_path(1, 0, 10, d1, {10, d1});
  tracker.on_path(0, 0, 10, d2, {10, d2});
  tracker.on_path(1, 0, 10, d2, {10, 5, d2});
  const ChurnStats stats = tracker.compute();
  double sum = 0.0;
  std::int64_t classes = 0;
  for (const auto& [cls, frac] : stats.changed_by_dest_class) {
    sum += frac;
    ++classes;
  }
  ASSERT_GE(classes, 1);
  EXPECT_GT(sum, 0.0);  // at least one class saw churn
}

// --- ChurnFold against a map/set reference --------------------------------

/// The fold's original layout, kept as the oracle: a std::set of
/// signatures per (granularity, window, pair) and per pair, sealed by
/// erasing map entries.
class ReferenceFold {
 public:
  ReferenceFold(const topo::AsGraph& graph, std::vector<topo::AsId> dests,
                std::size_t num_pairs)
      : graph_(graph), dests_(std::move(dests)), run_(num_pairs) {}

  void observe(std::size_t pair, util::Day day, std::uint64_t sig) {
    for (std::size_t gi = 0; gi < util::kAllGranularities.size(); ++gi) {
      open_[{gi, util::window_of(day, util::kAllGranularities[gi]), pair}].insert(sig);
    }
    run_[pair].insert(sig);
  }
  void retire_before(util::Day before) {
    for (auto it = open_.begin(); it != open_.end();) {
      const auto [gi, window, pair] = it->first;
      const util::Granularity g = util::kAllGranularities[gi];
      if (util::window_start(window, g) + util::window_length(g) > before) {
        ++it;
        continue;
      }
      sealed_[gi].push_back(static_cast<std::int64_t>(it->second.size()));
      it = open_.erase(it);
    }
  }
  void absorb(const ReferenceFold& other) {
    for (const auto& [key, sigs] : other.open_) open_[key].insert(sigs.begin(), sigs.end());
    for (std::size_t p = 0; p < run_.size(); ++p) {
      run_[p].insert(other.run_[p].begin(), other.run_[p].end());
    }
  }
  ChurnStats snapshot() const {
    std::array<std::vector<std::int64_t>, util::kAllGranularities.size()> samples = sealed_;
    for (const auto& [key, sigs] : open_) {
      samples[std::get<0>(key)].push_back(static_cast<std::int64_t>(sigs.size()));
    }
    ChurnStats stats;
    for (std::size_t gi = 0; gi < samples.size(); ++gi) {
      util::BucketedCounts counts(4);
      std::int64_t changed = 0;
      for (const std::int64_t n : samples[gi]) {
        counts.add(n);
        changed += n >= 2 ? 1 : 0;
      }
      const util::Granularity g = util::kAllGranularities[gi];
      stats.changed_fraction[g] = samples[gi].empty() ? 0.0
                                                      : static_cast<double>(changed) /
                                                            static_cast<double>(samples[gi].size());
      stats.distinct_paths.emplace(g, std::move(counts));
    }
    std::map<topo::AsClass, std::pair<std::int64_t, std::int64_t>> by_class;
    for (std::size_t p = 0; p < run_.size(); ++p) {
      if (run_[p].empty()) continue;
      auto& [chg, tot] = by_class[graph_.as_info(dests_[p % dests_.size()]).cls];
      ++tot;
      chg += run_[p].size() >= 2 ? 1 : 0;
    }
    for (const auto& [cls, ct] : by_class) {
      stats.changed_by_dest_class[cls] =
          static_cast<double>(ct.first) / static_cast<double>(ct.second);
    }
    return stats;
  }
  std::int64_t distinct_of_pair(std::size_t p) const {
    return static_cast<std::int64_t>(run_[p].size());
  }
  std::size_t open_window_entries() const { return open_.size(); }

 private:
  const topo::AsGraph& graph_;
  std::vector<topo::AsId> dests_;
  std::map<std::tuple<std::size_t, std::int32_t, std::size_t>, std::set<std::uint64_t>> open_;
  std::array<std::vector<std::int64_t>, util::kAllGranularities.size()> sealed_;
  std::vector<std::set<std::uint64_t>> run_;
};

void expect_fold_matches(const ChurnFold& fold, const ReferenceFold& reference) {
  test::expect_churn_equal(fold.snapshot(), reference.snapshot());
  for (std::size_t p = 0; p < fold.num_pairs(); ++p) {
    EXPECT_EQ(fold.distinct_of_pair(p), reference.distinct_of_pair(p)) << "pair " << p;
  }
  EXPECT_EQ(fold.open_window_entries(), reference.open_window_entries());
}

std::string saved(const ChurnFold& fold) {
  util::ByteWriter w;
  fold.save(w);
  return w.take();
}

TEST(ChurnFoldOracle, MatchesMapSetReferenceOnRandomStreams) {
  const std::uint64_t seed = ct::test::fuzz_seed(20261017);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  const topo::AsGraph graph = tiny_graph();
  const std::vector<topo::AsId> vantages{3, 10};
  const std::vector<topo::AsId> dests{20, 21, 25};
  const std::size_t num_pairs = vantages.size() * dests.size();
  // Pair 0 draws from 150 signatures, so it passes 64 and often 128
  // distinct paths (cells one, two and three words wide); the other
  // pairs draw from 6, so windows repeat signatures.
  std::vector<std::uint64_t> alphabet(150);
  for (std::uint64_t& sig : alphabet) sig = rng() | 1;
  int wide_rounds = 0;

  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const auto num_days = static_cast<util::Day>(rng.uniform_int(1, 80));
    ChurnFold fold(graph, vantages, dests, num_days, 3);
    ReferenceFold reference(graph, dests, num_pairs);
    util::Day watermark = 0;

    // Observations on open days, into `target` and the reference.
    const auto observe = [&](ChurnFold& target, std::int64_t count) {
      for (std::int64_t k = 0; k < count && watermark < num_days; ++k) {
        const std::size_t pair = rng.bernoulli(0.5) ? 0 : rng.index(num_pairs);
        const std::uint64_t sig = alphabet[rng.index(pair == 0 ? alphabet.size() : 6)];
        const auto day = static_cast<util::Day>(rng.uniform_int(watermark, num_days - 1));
        target.observe(pair, day, sig);
        reference.observe(pair, day, sig);
      }
    };

    const std::int64_t steps = rng.uniform_int(5, 30);
    for (std::int64_t step = 0; step < steps; ++step) {
      switch (rng.uniform_int(0, 3)) {
        case 0:
          observe(fold, rng.uniform_int(0, 40));
          break;
        case 1: {
          // A shard split: two unsealed folds merged, then absorbed
          // into the main fold.
          ChurnFold left(graph, vantages, dests, num_days, 3);
          ChurnFold right(graph, vantages, dests, num_days, 3);
          observe(left, rng.uniform_int(0, 20));
          observe(right, rng.uniform_int(0, 20));
          left.absorb_unsealed(std::move(right));
          fold.absorb_unsealed(std::move(left));
          break;
        }
        case 2: {
          const auto target = static_cast<util::Day>(rng.uniform_int(0, num_days + 30));
          fold.retire_before(target);
          reference.retire_before(target);
          watermark = std::max(watermark, target);
          break;
        }
        default: {
          const std::string bytes = saved(fold);
          ChurnFold restored(graph, vantages, dests, num_days, 3);
          util::ByteReader r(bytes);
          restored.load(r);
          r.expect_end();
          EXPECT_EQ(saved(restored), bytes);
          fold = std::move(restored);
          break;
        }
      }
      expect_fold_matches(fold, reference);
    }
    if (fold.distinct_of_pair(0) > 64) ++wide_rounds;
  }
  EXPECT_GT(wide_rounds, 0) << "no round passed 64 distinct paths in one pair";
}

/// FNV-1a, to pin long checkpoint bytes in a short constant.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out += kDigits[static_cast<std::uint8_t>(c) >> 4];
    out += kDigits[static_cast<std::uint8_t>(c) & 0xf];
  }
  return out;
}

// --- ChurnFold prefix-snapshot fuzz ---------------------------------------

TEST(ChurnFoldFuzz, SnapshotsMatchUnsealedFoldUnderRandomRetireInterleavings) {
  const std::uint64_t seed = ct::test::fuzz_seed(20260731);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  const topo::AsGraph graph = tiny_graph();
  const std::vector<topo::AsId> vantages{3, 10};
  const std::vector<topo::AsId> dests{20, 21, 25};
  constexpr util::Day kDays = 5 * util::kDaysPerWeek;

  for (int round = 0; round < 25; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    ChurnFold fold(graph, vantages, dests, kDays, 3);
    std::vector<std::tuple<std::size_t, util::Day, std::uint64_t>> observed;
    util::Day retired = 0;

    auto check_snapshot = [&] {
      ChurnFold reference(graph, vantages, dests, kDays, 3);
      for (const auto& [pair, day, sig] : observed) reference.observe(pair, day, sig);
      expect_churn_equal(fold.snapshot(), reference.snapshot());
      for (std::size_t p = 0; p < fold.num_pairs(); ++p) {
        EXPECT_EQ(fold.distinct_of_pair(p), reference.distinct_of_pair(p));
      }
    };

    // A day-ascending observation stream with random density, random
    // signature reuse, and random retire points — every snapshot along
    // the way must equal the unsealed batch fold of the same prefix.
    for (util::Day day = 0; day < kDays; ++day) {
      const std::int64_t obs_today = rng.uniform_int(0, 6);
      for (std::int64_t k = 0; k < obs_today; ++k) {
        const auto pair = static_cast<std::size_t>(
            rng.index(vantages.size() * dests.size()));
        // Small signature alphabet: windows frequently see repeats (the
        // distinct-set dedup path) and occasionally 5+ distinct values
        // (the histogram overflow bucket).
        const auto sig = static_cast<std::uint64_t>(rng.uniform_int(1, 9));
        fold.observe(pair, day, sig);
        observed.emplace_back(pair, day, sig);
      }
      if (rng.bernoulli(0.4)) {
        // Any watermark at or below the current day is legal, including
        // replays of old ones (monotone no-op).
        const auto target = static_cast<util::Day>(rng.uniform_int(0, day));
        fold.retire_before(target);
        retired = std::max(retired, target);
        EXPECT_EQ(fold.retired_before(), retired);
      }
      if (rng.bernoulli(0.25)) check_snapshot();
    }
    fold.retire_before(kDays);
    check_snapshot();
    // Month/year windows extend past the run, so they are still open at
    // the end-of-run watermark; sealing past the year boundary drains
    // every unsealed window without changing the snapshot.
    EXPECT_GT(fold.open_window_entries(), 0u);
    fold.retire_before(util::kDaysPerYear);
    check_snapshot();
    EXPECT_EQ(fold.open_window_entries(), 0u);
  }
}

TEST(ChurnFoldFuzz, ShardedMergeMatchesSerialFoldOnRandomStreams) {
  const std::uint64_t seed = ct::test::fuzz_seed(20260732);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  const topo::AsGraph graph = tiny_graph();
  const std::vector<topo::AsId> vantages{3, 10};
  const std::vector<topo::AsId> dests{20, 25};
  constexpr util::Day kDays = 3 * util::kDaysPerWeek;

  for (int round = 0; round < 25; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    // A random day split: windows straddle the boundary, so the merge
    // must union partial windows, not just concatenate.
    const auto split = static_cast<util::Day>(rng.uniform_int(1, kDays - 1));
    ChurnFold serial(graph, vantages, dests, kDays, 3);
    ChurnFold left(graph, vantages, dests, kDays, 3);
    ChurnFold right(graph, vantages, dests, kDays, 3);
    for (util::Day day = 0; day < kDays; ++day) {
      const std::int64_t obs_today = rng.uniform_int(0, 4);
      for (std::int64_t k = 0; k < obs_today; ++k) {
        const auto pair =
            static_cast<std::size_t>(rng.index(vantages.size() * dests.size()));
        const auto sig = static_cast<std::uint64_t>(rng.uniform_int(1, 6));
        serial.observe(pair, day, sig);
        (day < split ? left : right).observe(pair, day, sig);
      }
    }
    ChurnFold merged(left);
    merged.absorb_unsealed(std::move(right));
    expect_churn_equal(merged.snapshot(), serial.snapshot());

    // A sealed fold refuses an observation in a window it already
    // sealed: day split - 1's day window closed at retire_before(split).
    left.retire_before(split);
    ChurnFold other(graph, vantages, dests, kDays, 3);
    other.observe(0, split - 1, 1);
    EXPECT_THROW(left.absorb_unsealed(std::move(other)), std::logic_error);
  }
}

TEST(ChurnFold, LateObservationAfterSealThrows) {
  const topo::AsGraph graph = tiny_graph();
  ChurnFold fold(graph, {3}, {20}, 14, 1);
  fold.observe(0, 3, 42);
  fold.retire_before(4);
  EXPECT_THROW(fold.observe(0, 3, 43), std::logic_error);
  fold.observe(0, 4, 43);  // at the watermark: still open
}

TEST(ChurnFold, CheckpointBytesAreStable) {
  // The checkpoint payload of the std::map/std::set fold (format v3),
  // captured from that implementation: the dense fold must write the
  // same bytes.
  const topo::AsGraph graph = tiny_graph();
  ChurnFold fold(graph, {3, 10}, {20, 25}, 14, 2);
  fold.observe(3, 0, 0xB0);
  fold.observe(3, 0, 0xA0);
  fold.observe(1, 2, 0xC0);
  fold.observe(0, 8, 0xB0);
  fold.observe(0, 9, 0x11);
  fold.retire_before(7);
  fold.observe(2, 13, 0xA0);
  EXPECT_EQ(hex(saved(fold)),
            "0200000000000000030000000a000000020000000000000014000000190000000e00000002000000"
            "06000000000000000000000000000000010000000000000001000000000000000000000000000000"
            "00000000000000000000000000000000020000000000000002000000000000000100000000000000"
            "030000000000000008000000000000000100000000000000b0000000000000000900000000000000"
            "010000000000000011000000000000000d000000020000000100000000000000a000000000000000"
            "06000000000000000000000000000000010000000000000001000000000000000000000000000000"
            "00000000000000000000000000000000020000000000000002000000000000000100000000000000"
            "0200000000000000010000000000000002000000000000001100000000000000b000000000000000"
            "01000000020000000100000000000000a00000000000000006000000000000000000000000000000"
            "00000000000000000000000000000000000000000000000000000000000000000000000000000000"
            "00000000000000000000000000000000000000000000000004000000000000000000000000000000"
            "02000000000000001100000000000000b00000000000000000000000010000000100000000000000"
            "c00000000000000000000000020000000100000000000000a0000000000000000000000003000000"
            "0200000000000000a000000000000000b00000000000000006000000000000000000000000000000"
            "00000000000000000000000000000000000000000000000000000000000000000000000000000000"
            "00000000000000000000000000000000000000000000000004000000000000000000000000000000"
            "02000000000000001100000000000000b00000000000000000000000010000000100000000000000"
            "c00000000000000000000000020000000100000000000000a0000000000000000000000003000000"
            "0200000000000000a000000000000000b00000000000000004000000000000000200000000000000"
            "1100000000000000b0000000000000000100000000000000c0000000000000000100000000000000"
            "a0000000000000000200000000000000a000000000000000b00000000000000007000000");

  // A pair past 64 distinct paths: cells two words wide.
  ChurnFold wide(graph, {3}, {20, 25}, 14, 1);
  for (std::uint64_t k = 0; k < 70; ++k) {
    wide.observe(1, static_cast<util::Day>(k % 14), util::mix64(k, 7) | 1);
  }
  wide.observe(0, 3, 5);
  wide.retire_before(7);
  const std::string wide_bytes = saved(wide);
  EXPECT_EQ(wide_bytes.size(), 2872u);
  EXPECT_EQ(fnv1a(wide_bytes), 5192782736478283193ULL);
}

// --- ChurnFold::load refuses crafted payloads -----------------------------

/// A ChurnFold payload written field by field, as save() lays it out.
struct Payload {
  std::vector<topo::AsId> vantages{3};
  std::vector<topo::AsId> dests{20, 25};
  util::Day num_days = 14;
  std::int32_t epochs_per_day = 1;
  /// Per granularity: (window, pair, signatures) entries.
  std::array<std::vector<std::tuple<std::int32_t, std::uint32_t, std::vector<std::uint64_t>>>,
             util::kAllGranularities.size()>
      open;
  std::vector<std::vector<std::uint64_t>> run{{5}, {}};
  util::Day retired_before = 0;

  std::string bytes() const {
    util::ByteWriter w;
    const auto save_as = [](util::ByteWriter& w, topo::AsId as) { w.i32(as); };
    const auto save_sigs = [](util::ByteWriter& w, const std::vector<std::uint64_t>& sigs) {
      util::save_vec(w, sigs, [](util::ByteWriter& w, std::uint64_t s) { w.u64(s); });
    };
    util::save_vec(w, vantages, save_as);
    util::save_vec(w, dests, save_as);
    w.i32(num_days);
    w.i32(epochs_per_day);
    for (const auto& entries : open) {
      util::BucketedCounts(4).save(w);
      w.i64(0);
      w.i64(0);
      w.size(entries.size());
      for (const auto& [window, pair, sigs] : entries) {
        w.i32(window);
        w.u32(pair);
        save_sigs(w, sigs);
      }
    }
    util::save_vec(w, run, save_sigs);
    w.i32(retired_before);
    return w.take();
  }
};

/// A well-formed payload: pair 0 saw signature 5 on day 8.
Payload valid_payload() {
  Payload p;
  p.open[0] = {{8, 0, {5}}};  // day 8
  p.open[1] = {{1, 0, {5}}};  // week 1
  p.open[2] = {{0, 0, {5}}};  // month 0
  p.open[3] = {{0, 0, {5}}};  // year 0
  p.retired_before = 7;
  return p;
}

class ChurnFoldLoad : public ::testing::Test {
 protected:
  /// Loads `payload` into a fold that already holds one observation;
  /// a refused payload must leave that fold as it was.
  void expect_refused(const Payload& payload) {
    ChurnFold fold(graph_, {3}, {20, 25}, 14, 1);
    fold.observe(1, 10, 9);
    const std::string before = saved(fold);
    const std::string bytes = payload.bytes();
    util::ByteReader r(bytes);
    EXPECT_THROW(fold.load(r), util::SerdeError);
    EXPECT_EQ(saved(fold), before);
  }

  const topo::AsGraph graph_ = tiny_graph();
};

TEST_F(ChurnFoldLoad, AcceptsWellFormedPayload) {
  const std::string bytes = valid_payload().bytes();
  ChurnFold fold(graph_, {3}, {20, 25}, 14, 1);
  util::ByteReader r(bytes);
  fold.load(r);
  r.expect_end();
  EXPECT_EQ(saved(fold), bytes);
  EXPECT_EQ(fold.open_window_entries(), 4u);
  EXPECT_EQ(fold.distinct_of_pair(0), 1);
}

TEST_F(ChurnFoldLoad, RejectsPairOutsideGeometry) {
  Payload p = valid_payload();
  p.open[0].emplace_back(9, 2, std::vector<std::uint64_t>{5});  // 2 pairs only
  expect_refused(p);
}

TEST_F(ChurnFoldLoad, RejectsWindowAlreadySealed) {
  Payload p = valid_payload();
  p.open[0].insert(p.open[0].begin(), {3, 0, {5}});  // day 3 < watermark 7
  expect_refused(p);
  p = valid_payload();
  p.open[1].insert(p.open[1].begin(), {0, 0, {5}});  // week 0 ends at day 7
  expect_refused(p);
}

TEST_F(ChurnFoldLoad, RejectsWindowPastTheRun) {
  Payload p = valid_payload();
  p.open[0].emplace_back(14, 0, std::vector<std::uint64_t>{5});  // days 0..13
  expect_refused(p);
  p = valid_payload();
  p.open[1].emplace_back(1 << 30, 0, std::vector<std::uint64_t>{5});
  expect_refused(p);
}

TEST_F(ChurnFoldLoad, RejectsZeroSignature) {
  Payload p = valid_payload();
  p.open[0] = {{8, 0, {0, 5}}};
  p.run[0] = {0, 5};
  expect_refused(p);
}

TEST_F(ChurnFoldLoad, RejectsSignatureMissingFromRunWideSet) {
  Payload p = valid_payload();
  p.open[0] = {{8, 0, {5, 6}}};  // 6 never reached run[0]
  expect_refused(p);
}

}  // namespace
}  // namespace ct::analysis
