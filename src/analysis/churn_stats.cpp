#include "analysis/churn_stats.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.h"
#include "util/serde.h"

namespace ct::analysis {

std::uint64_t path_signature(const std::vector<topo::AsId>& path) {
  if (path.empty()) return 0;
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const topo::AsId as : path) {
    h = util::mix64(h, static_cast<std::uint64_t>(as) + 1);
  }
  return h == 0 ? 1 : h;  // reserve 0 for "no path"
}

ChurnFold::ChurnFold(const topo::AsGraph& graph, std::vector<topo::AsId> vantages,
                     std::vector<topo::AsId> dests, util::Day num_days,
                     std::int32_t epochs_per_day)
    : graph_(&graph),
      vantages_(std::move(vantages)),
      dests_(std::move(dests)),
      num_days_(num_days),
      epochs_per_day_(epochs_per_day) {
  sigs_.resize(num_pairs());
}

std::vector<std::uint64_t>& ChurnFold::slot(GranState& gran, std::int32_t window) {
  if (gran.open.empty()) gran.base = window;
  if (window < gran.base) {
    gran.open.insert(gran.open.begin(), static_cast<std::size_t>(gran.base - window), {});
    gran.base = window;
  }
  const auto i = static_cast<std::size_t>(window - gran.base);
  if (i >= gran.open.size()) gran.open.resize(i + 1);
  std::vector<std::uint64_t>& cells = gran.open[i];
  if (cells.empty()) cells.assign(num_pairs() * words_, 0);
  return cells;
}

std::size_t ChurnFold::local_id(std::size_t pair, std::uint64_t signature) {
  std::vector<std::uint64_t>& sigs = sigs_[pair];
  const auto it = std::find(sigs.begin(), sigs.end(), signature);
  if (it != sigs.end()) return static_cast<std::size_t>(it - sigs.begin());
  if (sigs.size() == 64 * words_) widen(words_ + 1);
  sigs.push_back(signature);
  return sigs.size() - 1;
}

void ChurnFold::widen(std::size_t words) {
  for (GranState& gran : grans_) {
    for (std::vector<std::uint64_t>& cells : gran.open) {
      if (cells.empty()) continue;
      std::vector<std::uint64_t> wide(num_pairs() * words, 0);
      for (std::size_t p = 0; p < num_pairs(); ++p) {
        std::copy_n(cells.begin() + static_cast<std::ptrdiff_t>(p * words_), words_,
                    wide.begin() + static_cast<std::ptrdiff_t>(p * words));
      }
      cells = std::move(wide);
    }
  }
  words_ = words;
}

std::int64_t ChurnFold::popcount(const std::vector<std::uint64_t>& cells,
                                 std::size_t pair) const {
  std::int64_t n = 0;
  for (std::size_t k = 0; k < words_; ++k) n += std::popcount(cells[pair * words_ + k]);
  return n;
}

void ChurnFold::tally(const std::vector<std::uint64_t>& cells, util::BucketedCounts& counts,
                      std::int64_t& samples, std::int64_t& changed) const {
  if (cells.empty()) return;
  for (std::size_t p = 0; p < num_pairs(); ++p) {
    const std::int64_t distinct = popcount(cells, p);
    if (distinct == 0) continue;
    counts.add(distinct);
    ++samples;
    changed += distinct >= 2 ? 1 : 0;
  }
}

void ChurnFold::observe(std::size_t pair, util::Day day, std::uint64_t signature) {
  if (day < retired_before_) {
    throw std::logic_error("ChurnFold::observe: day " + std::to_string(day) +
                           " arrived after watermark " + std::to_string(retired_before_) +
                           " (window already sealed)");
  }
  if (pair >= num_pairs() || day >= num_days_ || signature == 0) {
    throw std::out_of_range("ChurnFold::observe: pair " + std::to_string(pair) + ", day " +
                            std::to_string(day) + " or a zero signature is out of range");
  }
  const std::size_t local = local_id(pair, signature);  // may widen: read words_ after
  const std::size_t word = pair * words_ + local / 64;
  const std::uint64_t bit = std::uint64_t{1} << (local % 64);
  for (std::size_t gi = 0; gi < util::kAllGranularities.size(); ++gi) {
    slot(grans_[gi], util::window_of(day, util::kAllGranularities[gi]))[word] |= bit;
  }
}

void ChurnFold::retire_before(util::Day complete_before) {
  if (complete_before <= retired_before_) return;  // monotone
  retired_before_ = complete_before;
  for (std::size_t gi = 0; gi < util::kAllGranularities.size(); ++gi) {
    const util::Granularity g = util::kAllGranularities[gi];
    GranState& gran = grans_[gi];
    while (!gran.open.empty() &&
           util::window_start(gran.base, g) + util::window_length(g) <= complete_before) {
      tally(gran.open.front(), gran.counts, gran.samples, gran.changed);
      gran.open.pop_front();
      ++gran.base;
    }
  }
}

void ChurnFold::union_with(const ChurnFold& other) {
  // Per pair, other's local id -> ours; interning every signature of
  // other's table also unions the run-wide distinct sets.
  std::vector<std::vector<std::uint32_t>> remap(num_pairs());
  for (std::size_t p = 0; p < num_pairs(); ++p) {
    remap[p].reserve(other.sigs_[p].size());
    for (const std::uint64_t sig : other.sigs_[p]) {
      remap[p].push_back(static_cast<std::uint32_t>(local_id(p, sig)));
    }
  }
  for (std::size_t gi = 0; gi < util::kAllGranularities.size(); ++gi) {
    const GranState& theirs = other.grans_[gi];
    for (std::size_t i = 0; i < theirs.open.size(); ++i) {
      const std::vector<std::uint64_t>& src = theirs.open[i];
      if (src.empty()) continue;
      std::vector<std::uint64_t>& dst =
          slot(grans_[gi], theirs.base + static_cast<std::int32_t>(i));
      for (std::size_t p = 0; p < num_pairs(); ++p) {
        for (std::size_t k = 0; k < other.words_; ++k) {
          for (std::uint64_t bits = src[p * other.words_ + k]; bits != 0; bits &= bits - 1) {
            const std::uint32_t local = remap[p][64 * k + std::countr_zero(bits)];
            dst[p * words_ + local / 64] |= std::uint64_t{1} << (local % 64);
          }
        }
      }
    }
  }
}

void ChurnFold::absorb_unsealed(ChurnFold&& other) {
  if (!same_geometry(other)) {
    throw std::invalid_argument("ChurnFold::absorb_unsealed: geometry mismatch");
  }
  if (other.retired_before_ != 0) {
    throw std::logic_error("ChurnFold::absorb_unsealed: the absorbed fold must be unsealed");
  }
  for (std::size_t gi = 0; gi < util::kAllGranularities.size(); ++gi) {
    const util::Granularity g = util::kAllGranularities[gi];
    const GranState& theirs = other.grans_[gi];
    for (std::size_t i = 0; i < theirs.open.size(); ++i) {
      const std::int32_t window = theirs.base + static_cast<std::int32_t>(i);
      if (theirs.open[i].empty() ||
          util::window_start(window, g) + util::window_length(g) > retired_before_) {
        continue;
      }
      throw std::logic_error("ChurnFold::absorb_unsealed: observation in a window this "
                             "fold already sealed (" + util::window_label(window, g) +
                             " ends at or before watermark " +
                             std::to_string(retired_before_) + ")");
    }
  }
  union_with(other);
}

ChurnStats ChurnFold::snapshot() const {
  ChurnStats stats;
  for (std::size_t gi = 0; gi < util::kAllGranularities.size(); ++gi) {
    const util::Granularity g = util::kAllGranularities[gi];
    const GranState& gran = grans_[gi];
    util::BucketedCounts counts = gran.counts;
    std::int64_t samples = gran.samples;
    std::int64_t changed = gran.changed;
    for (const std::vector<std::uint64_t>& cells : gran.open) {
      tally(cells, counts, samples, changed);
    }
    stats.changed_fraction[g] =
        samples == 0 ? 0.0 : static_cast<double>(changed) / static_cast<double>(samples);
    stats.distinct_paths.emplace(g, std::move(counts));
  }

  // Churn by destination class over the full run (year window).
  std::map<topo::AsClass, std::pair<std::int64_t, std::int64_t>> by_class;  // (changed, total)
  for (std::size_t vi = 0; vi < vantages_.size(); ++vi) {
    for (std::size_t di = 0; di < dests_.size(); ++di) {
      const std::size_t distinct = sigs_[pair_index(vi, di)].size();
      if (distinct == 0) continue;
      auto& [chg, tot] = by_class[graph_->as_info(dests_[di]).cls];
      ++tot;
      chg += distinct >= 2 ? 1 : 0;
    }
  }
  for (const auto& [cls, counts] : by_class) {
    stats.changed_by_dest_class[cls] =
        counts.second == 0 ? 0.0
                           : static_cast<double>(counts.first) /
                                 static_cast<double>(counts.second);
  }
  return stats;
}

std::size_t ChurnFold::observed_cells(const GranState& gran) const {
  std::size_t n = 0;
  for (const std::vector<std::uint64_t>& cells : gran.open) {
    if (cells.empty()) continue;
    for (std::size_t p = 0; p < num_pairs(); ++p) n += popcount(cells, p) > 0 ? 1 : 0;
  }
  return n;
}

std::size_t ChurnFold::open_window_entries() const {
  std::size_t n = 0;
  for (const GranState& gran : grans_) n += observed_cells(gran);
  return n;
}

namespace {

void save_sorted(util::ByteWriter& w, std::vector<std::uint64_t> sigs) {
  std::sort(sigs.begin(), sigs.end());
  util::save_vec(w, sigs, [](util::ByteWriter& w, std::uint64_t s) { w.u64(s); });
}

/// A signature list as save_sorted() writes it: strictly ascending and
/// free of the reserved "no path" signature 0.
std::vector<std::uint64_t> load_sorted(util::ByteReader& r) {
  std::vector<std::uint64_t> sigs;
  util::load_vec(r, sigs, [](util::ByteReader& r) { return r.u64(); });
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    if (sigs[i] == 0 || (i > 0 && sigs[i] <= sigs[i - 1])) {
      throw util::SerdeError(
          "ChurnFold::load: signature list is not ascending, nonzero and distinct");
    }
  }
  return sigs;
}

}  // namespace

void ChurnFold::save(util::ByteWriter& w) const {
  const auto save_as = [](util::ByteWriter& w, topo::AsId as) { w.i32(as); };
  util::save_vec(w, vantages_, save_as);
  util::save_vec(w, dests_, save_as);
  w.i32(num_days_);
  w.i32(epochs_per_day_);
  std::vector<std::uint64_t> sigs;
  for (const GranState& gran : grans_) {
    gran.counts.save(w);
    w.i64(gran.samples);
    w.i64(gran.changed);
    // The open cells as the (window, pair)-keyed map of signature sets.
    w.size(observed_cells(gran));
    for (std::size_t i = 0; i < gran.open.size(); ++i) {
      const std::vector<std::uint64_t>& cells = gran.open[i];
      if (cells.empty()) continue;
      for (std::size_t p = 0; p < num_pairs(); ++p) {
        sigs.clear();
        for (std::size_t k = 0; k < words_; ++k) {
          for (std::uint64_t bits = cells[p * words_ + k]; bits != 0; bits &= bits - 1) {
            sigs.push_back(sigs_[p][64 * k + std::countr_zero(bits)]);
          }
        }
        if (sigs.empty()) continue;
        w.i32(gran.base + static_cast<std::int32_t>(i));
        w.u32(static_cast<std::uint32_t>(p));
        save_sorted(w, sigs);
      }
    }
  }
  util::save_vec(w, sigs_, save_sorted);
  w.i32(retired_before_);
}

void ChurnFold::load(util::ByteReader& r) {
  const auto load_as = [](util::ByteReader& r) { return topo::AsId{r.i32()}; };
  std::vector<topo::AsId> vantages;
  std::vector<topo::AsId> dests;
  util::load_vec(r, vantages, load_as);
  util::load_vec(r, dests, load_as);
  const util::Day num_days = r.i32();
  const std::int32_t epochs_per_day = r.i32();
  if (vantages != vantages_ || dests != dests_ || num_days != num_days_ ||
      epochs_per_day != epochs_per_day_) {
    throw util::SerdeError("ChurnFold::load: geometry mismatch with the restoring fold");
  }

  // Parse and check everything before building a single cell: the
  // entries are bounded by the payload's bytes, the cells are not.
  struct Entry {
    std::int32_t window;
    std::uint32_t pair;
    std::vector<std::uint64_t> sigs;
  };
  std::array<GranState, util::kAllGranularities.size()> grans;
  std::array<std::vector<Entry>, util::kAllGranularities.size()> entries;
  for (std::size_t gi = 0; gi < grans.size(); ++gi) {
    const util::Granularity g = util::kAllGranularities[gi];
    GranState& gran = grans[gi];
    gran.counts.load(r);
    gran.samples = r.i64();
    gran.changed = r.i64();
    util::load_vec(r, entries[gi], [&](util::ByteReader& r) {
      Entry e{r.i32(), r.u32(), {}};
      if (e.pair >= num_pairs() || e.window < 0 ||
          e.window >= util::window_count(num_days_, g)) {
        throw util::SerdeError("ChurnFold::load: entry (" + util::window_label(e.window, g) +
                               ", pair " + std::to_string(e.pair) +
                               ") is outside the fold's geometry");
      }
      e.sigs = load_sorted(r);
      if (e.sigs.empty()) throw util::SerdeError("ChurnFold::load: empty window entry");
      return e;
    });
    for (std::size_t i = 1; i < entries[gi].size(); ++i) {
      const Entry& a = entries[gi][i - 1];
      const Entry& b = entries[gi][i];
      if (std::make_pair(a.window, a.pair) >= std::make_pair(b.window, b.pair)) {
        throw util::SerdeError("ChurnFold::load: window entries out of key order");
      }
    }
  }
  if (r.size() != num_pairs()) {
    throw util::SerdeError("ChurnFold::load: run_distinct size mismatch");
  }
  std::vector<std::vector<std::uint64_t>> sigs(num_pairs());
  for (std::vector<std::uint64_t>& pair_sigs : sigs) pair_sigs = load_sorted(r);
  const util::Day retired_before = r.i32();
  if (retired_before < 0) throw util::SerdeError("ChurnFold::load: negative watermark");
  std::size_t max_distinct = 0;
  for (const std::vector<std::uint64_t>& pair_sigs : sigs) {
    max_distinct = std::max(max_distinct, pair_sigs.size());
  }
  for (std::size_t gi = 0; gi < grans.size(); ++gi) {
    const util::Granularity g = util::kAllGranularities[gi];
    for (const Entry& e : entries[gi]) {
      if (util::window_start(e.window, g) + util::window_length(g) <= retired_before) {
        throw util::SerdeError("ChurnFold::load: open entry in " +
                               util::window_label(e.window, g) +
                               ", which the saved watermark already sealed");
      }
      for (const std::uint64_t sig : e.sigs) {
        if (!std::binary_search(sigs[e.pair].begin(), sigs[e.pair].end(), sig)) {
          throw util::SerdeError("ChurnFold::load: a window signature of pair " +
                                 std::to_string(e.pair) + " is absent from its run-wide set");
        }
      }
    }
  }

  // Valid: local ids are positions in the sorted run-wide lists.
  grans_ = std::move(grans);
  sigs_ = std::move(sigs);
  words_ = std::max<std::size_t>(1, (max_distinct + 63) / 64);
  retired_before_ = retired_before;
  for (std::size_t gi = 0; gi < grans_.size(); ++gi) {
    for (const Entry& e : entries[gi]) {
      std::vector<std::uint64_t>& cells = slot(grans_[gi], e.window);
      const std::vector<std::uint64_t>& table = sigs_[e.pair];
      for (const std::uint64_t sig : e.sigs) {
        const auto local = static_cast<std::size_t>(
            std::lower_bound(table.begin(), table.end(), sig) - table.begin());
        cells[e.pair * words_ + local / 64] |= std::uint64_t{1} << (local % 64);
      }
    }
  }
}

namespace {

/// AsId -> position in `ases` (the last one for a repeated AS), -1 for
/// an AS the list does not hold.
std::vector<std::int32_t> dense_index(const std::vector<topo::AsId>& ases) {
  std::vector<std::int32_t> index;
  for (std::size_t i = 0; i < ases.size(); ++i) {
    if (ases[i] < 0) continue;
    const auto as = static_cast<std::size_t>(ases[i]);
    if (as >= index.size()) index.resize(as + 1, -1);
    index[as] = static_cast<std::int32_t>(i);
  }
  return index;
}

std::int32_t lookup(const std::vector<std::int32_t>& index, topo::AsId as) {
  return as < 0 || static_cast<std::size_t>(as) >= index.size()
             ? -1
             : index[static_cast<std::size_t>(as)];
}

}  // namespace

PathChurnTracker::PathChurnTracker(const topo::AsGraph& graph,
                                   std::vector<topo::AsId> vantages,
                                   std::vector<topo::AsId> dests, util::Day num_days,
                                   std::int32_t epochs_per_day)
    : fold_(graph, std::move(vantages), std::move(dests), num_days, epochs_per_day) {
  vantage_index_ = dense_index(fold_.vantages());
  dest_index_ = dense_index(fold_.dests());
}

void PathChurnTracker::on_path(util::Day day, std::int32_t epoch, topo::AsId vantage,
                               topo::AsId dest, const std::vector<topo::AsId>& path) {
  const std::int32_t vi = lookup(vantage_index_, vantage);
  const std::int32_t di = lookup(dest_index_, dest);
  if (vi < 0 || di < 0) return;
  if (day < 0 || day >= fold_.num_days() || epoch < 0 || epoch >= fold_.epochs_per_day()) {
    return;
  }
  const std::uint64_t sig = path_signature(path);
  if (sig == 0) return;  // unreachable: never a distinct path
  fold_.observe(fold_.pair_index(static_cast<std::size_t>(vi), static_cast<std::size_t>(di)),
                day, sig);
}

void PathChurnTracker::merge(PathChurnTracker&& other) {
  fold_.absorb_unsealed(std::move(other.fold_));
}

std::int64_t PathChurnTracker::distinct_paths_of_pair(topo::AsId vantage,
                                                      topo::AsId dest) const {
  const std::int32_t vi = lookup(vantage_index_, vantage);
  const std::int32_t di = lookup(dest_index_, dest);
  if (vi < 0 || di < 0) return 0;
  return fold_.distinct_of_pair(
      fold_.pair_index(static_cast<std::size_t>(vi), static_cast<std::size_t>(di)));
}

}  // namespace ct::analysis
