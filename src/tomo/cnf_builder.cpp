#include "tomo/cnf_builder.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/serde.h"
#include "util/thread_pool.h"

namespace ct::tomo {

namespace {

void save_cnf_key(util::ByteWriter& w, const CnfKey& key) {
  w.i32(key.url_id);
  w.u8(static_cast<std::uint8_t>(key.anomaly));
  w.u8(static_cast<std::uint8_t>(key.granularity));
  w.i32(key.window);
}

CnfKey load_cnf_key(util::ByteReader& r) {
  CnfKey key;
  key.url_id = r.i32();
  key.anomaly = static_cast<censor::Anomaly>(r.u8());
  key.granularity = static_cast<util::Granularity>(r.u8());
  key.window = r.i32();
  return key;
}

void save_path_id(util::ByteWriter& w, PathPool::PathId id) { w.i32(id); }
PathPool::PathId load_path_id(util::ByteReader& r) { return r.i32(); }

/// Dedupe-table key of a (path id, observed) pair; path ids are
/// non-negative.
std::uint32_t stamp_key(PathPool::PathId id, bool observed) {
  return (static_cast<std::uint32_t>(id) << 1) | (observed ? 1u : 0u);
}

/// Configured granularities in enum (= CnfKey) order, duplicates
/// dropped: a repeated granularity files into the same group.
std::vector<util::Granularity> canonical_granularities(std::vector<util::Granularity> gs) {
  std::sort(gs.begin(), gs.end());
  gs.erase(std::unique(gs.begin(), gs.end()), gs.end());
  return gs;
}

}  // namespace

sat::Var TomoCnf::var_of(topo::AsId as) const {
  for (std::size_t v = 0; v < vars.size(); ++v) {
    if (vars[v] == as) return static_cast<sat::Var>(v);
  }
  return -1;
}

StreamingCnfBuilder::StampTable::Windows& StreamingCnfBuilder::StampTable::find_or_insert(
    std::uint32_t key) {
  if (2 * (size_ + 1) > slots_.size()) grow();  // load factor <= 1/2
  const std::size_t mask = slots_.size() - 1;
  // Fibonacci hashing: the top bits_ bits of key * 2^64/phi.
  std::size_t i = static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> (64 - bits_));
  while (slots_[i].key != key) {
    if (slots_[i].key == kEmpty) {
      slots_[i].key = key;
      slots_[i].windows.fill(-1);
      ++size_;
      break;
    }
    i = (i + 1) & mask;
  }
  return slots_[i].windows;
}

void StreamingCnfBuilder::StampTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  bits_ = old.empty() ? 4 : bits_ + 1;
  slots_.assign(std::size_t{1} << bits_, Slot{});
  size_ = 0;
  for (const Slot& slot : old) {
    if (slot.key != kEmpty) find_or_insert(slot.key) = slot.windows;
  }
}

StreamingCnfBuilder::StreamingCnfBuilder(const PathPool& pool, CnfBuildOptions options,
                                         util::ThreadPool* threads)
    : granularities_(canonical_granularities(std::move(options.granularities))),
      pool_(&pool),
      threads_(threads) {}

std::size_t StreamingCnfBuilder::open_groups(const Chain& chain) {
  std::size_t n = 0;
  for (const auto& groups : chain.groups) n += groups.size();
  return n;
}

std::size_t StreamingCnfBuilder::open_windows() const {
  std::size_t n = 0;
  for (const Chain& chain : chains_) n += open_groups(chain);
  return n;
}

std::size_t StreamingCnfBuilder::chain_index(std::int32_t url_id, censor::Anomaly anomaly) {
  return static_cast<std::size_t>(url_id) * censor::kNumAnomalies +
         static_cast<std::size_t>(anomaly);
}

CnfKey StreamingCnfBuilder::chain_key(std::size_t index) {
  CnfKey key;
  key.url_id = static_cast<std::int32_t>(index / censor::kNumAnomalies);
  key.anomaly = static_cast<censor::Anomaly>(index % censor::kNumAnomalies);
  return key;
}

StreamingCnfBuilder::Chain& StreamingCnfBuilder::chain_at(std::int32_t url_id,
                                                          censor::Anomaly anomaly) {
  const std::size_t index = chain_index(url_id, anomaly);
  if (index >= chains_.size()) chains_.resize(index + 1);
  return chains_[index];
}

std::size_t StreamingCnfBuilder::lanes() const {
  return threads_ != nullptr ? threads_->size() : 1;
}

std::size_t StreamingCnfBuilder::num_ranges(std::size_t max_ranges) const {
  return std::max<std::size_t>(1, std::min({lanes(), chains_.size(), max_ranges}));
}

void StreamingCnfBuilder::for_each_range(std::size_t ranges, const RangeFn& fn) {
  const std::size_t n = chains_.size();
  const auto run = [&](unsigned worker, std::size_t r) {
    fn(worker, r, r * n / ranges, (r + 1) * n / ranges);
  };
  if (ranges == 1) {
    run(0, 0);
  } else {
    threads_->for_each_index(ranges, run);
  }
}

void StreamingCnfBuilder::add(std::span<const PathClause> clauses) {
  // Every check that does not depend on chain state runs before any
  // state is touched, so such a rejected batch leaves no trace.
  std::int32_t max_url = -1;
  for (const PathClause& clause : clauses) {
    if (clause.day < watermark_) {
      throw std::logic_error("StreamingCnfBuilder::add: clause for day " +
                             std::to_string(clause.day) + " arrived after watermark " +
                             std::to_string(watermark_) + " (window already emitted)");
    }
    const auto a = static_cast<std::size_t>(clause.anomaly);
    if (clause.url_id < 0 || a >= censor::kNumAnomalies) {
      throw std::logic_error("StreamingCnfBuilder: invalid chain (url " +
                             std::to_string(clause.url_id) + ", anomaly " + std::to_string(a) +
                             ")");
    }
    if (clause.path_id < 0 || static_cast<std::size_t>(clause.path_id) >= pool_->size()) {
      throw std::logic_error("StreamingCnfBuilder::add: invalid path id " +
                             std::to_string(clause.path_id));
    }
    max_url = std::max(max_url, clause.url_id);
  }
  if (clauses.empty()) return;
  // Through the last chain of max_url.
  const std::size_t needed = chain_index(max_url, censor::Anomaly::kDns) + censor::kNumAnomalies;
  if (needed > chains_.size()) chains_.resize(needed);

  // Each range's worker scans the whole batch and files the clauses of
  // its own chains, in batch order.  The stream is day-major, so the
  // day's windows are recomputed only when the day changes.
  for_each_range(num_ranges(clauses.size()),
                 [&](unsigned, std::size_t, std::size_t begin, std::size_t end) {
                   util::Day day = clauses.front().day;
                   StampTable::Windows windows = windows_of(day);
                   for (const PathClause& clause : clauses) {
                     const std::size_t index = chain_index(clause.url_id, clause.anomaly);
                     if (index < begin || index >= end) continue;
                     if (clause.day != day) {
                       day = clause.day;
                       windows = windows_of(day);
                     }
                     file(chains_[index], clause, windows);
                   }
                 });
}

StreamingCnfBuilder::StampTable::Windows StreamingCnfBuilder::windows_of(util::Day day) {
  StampTable::Windows windows{};
  for (const util::Granularity g : util::kAllGranularities) {
    windows[static_cast<std::size_t>(g)] = util::window_of(day, g);
  }
  return windows;
}

void StreamingCnfBuilder::file(Chain& chain, const PathClause& clause,
                               const StampTable::Windows& windows) const {
  // Check the ordering precondition before touching the chain, so a
  // rejected clause leaves it as it was.
  for (const util::Granularity g : granularities_) {
    const auto& groups = chain.groups[static_cast<std::size_t>(g)];
    if (!groups.empty() && groups.back().window > windows[static_cast<std::size_t>(g)]) {
      throw std::logic_error("StreamingCnfBuilder::add: clause for day " +
                             std::to_string(clause.day) + " of url " +
                             std::to_string(clause.url_id) +
                             " goes back to an earlier " + std::string(util::to_string(g)) +
                             " window (chain clauses must be day-ordered)");
    }
  }
  StampTable::Windows& stamps =
      chain.stamps.find_or_insert(stamp_key(clause.path_id, clause.observed));
  for (const util::Granularity g : granularities_) {
    const std::size_t gi = static_cast<std::size_t>(g);
    const std::int32_t window = windows[gi];
    auto& groups = chain.groups[gi];
    if (groups.empty() || groups.back().window != window) {
      groups.push_back(Group{window, {}, {}});
    }
    if (stamps[gi] == window) continue;  // already in this window's group
    stamps[gi] = window;
    Group& group = groups.back();
    (clause.observed ? group.positive_ids : group.negative_ids).push_back(clause.path_id);
  }
}

StreamingCnfBuilder::AsSlot& StreamingCnfBuilder::EmitScratch::touch(topo::AsId as) {
  if (as < 0) {
    throw std::logic_error("StreamingCnfBuilder: negative AS id " + std::to_string(as) +
                           " on a path");
  }
  const auto index = static_cast<std::size_t>(as);
  if (index >= as_slots.size()) as_slots.resize(index + 1);
  AsSlot& slot = as_slots[index];
  if (slot.mark != generation) {
    slot.mark = generation;
    slot.clean = false;
    as_list.push_back(as);
  }
  return slot;
}

TomoCnf StreamingCnfBuilder::build_group(const CnfKey& key, const Group& group,
                                         EmitScratch& scratch) const {
  TomoCnf tc;
  tc.key = key;

  // A new generation invalidates every slot at once; on wrap-around
  // the marks are cleared so an ancient mark cannot alias.
  if (++scratch.generation == 0) {
    for (AsSlot& slot : scratch.as_slots) slot.mark = 0;
    scratch.generation = 1;
  }
  std::vector<AsSlot>& slots = scratch.as_slots;
  scratch.as_list.clear();
  // ASes seen on any clean path (the negative units), then the rest of
  // the variable space: every AS observed in this CNF's clauses.
  for (const auto id : group.negative_ids) {
    for (const topo::AsId as : pool_->get(id)) scratch.touch(as).clean = true;
  }
  for (const auto id : group.positive_ids) {
    for (const topo::AsId as : pool_->get(id)) scratch.touch(as);
  }
  std::sort(scratch.as_list.begin(), scratch.as_list.end());
  tc.vars = scratch.as_list;
  tc.cnf.num_vars = static_cast<std::int32_t>(tc.vars.size());
  for (std::size_t v = 0; v < tc.vars.size(); ++v) {
    slots[static_cast<std::size_t>(tc.vars[v])].var = static_cast<sat::Var>(v);
  }

  std::size_t num_clean = 0;
  for (const topo::AsId as : tc.vars) num_clean += slots[static_cast<std::size_t>(as)].clean;
  tc.cnf.clauses.reserve(num_clean + group.positive_ids.size());
  tc.positive_paths.reserve(group.positive_ids.size());

  // Negative units, in variable (= AS id) order.
  for (std::size_t v = 0; v < tc.vars.size(); ++v) {
    if (!slots[static_cast<std::size_t>(tc.vars[v])].clean) continue;
    tc.cnf.add_clause({sat::Lit(static_cast<sat::Var>(v), /*negated=*/true)});
    ++tc.num_negative_units;
  }
  // Positive disjunctions, one literal per distinct AS in path order
  // (paths are a handful of hops, so a linear duplicate scan is cheapest).
  for (const auto id : group.positive_ids) {
    const auto& path = pool_->get(id);
    std::vector<sat::Lit> lits;
    for (const topo::AsId as : path) {
      const sat::Lit lit(slots[static_cast<std::size_t>(as)].var, /*negated=*/false);
      if (std::find(lits.begin(), lits.end(), lit) == lits.end()) lits.push_back(lit);
    }
    tc.cnf.add_clause(std::move(lits));
    ++tc.num_positive_clauses;
    tc.positive_paths.push_back(path);
  }
  return tc;
}

void StreamingCnfBuilder::close_chain(std::size_t index, util::Day complete_before,
                                      EmitScratch& scratch, std::vector<TomoCnf>& out) {
  Chain& chain = chains_[index];
  if (open_groups(chain) == 0) return;
  CnfKey key = chain_key(index);
  // Granularities in enum order, windows ascending: key order.
  for (std::size_t gi = 0; gi < kNumGranularities; ++gi) {
    auto& groups = chain.groups[gi];
    key.granularity = static_cast<util::Granularity>(gi);
    const std::int64_t length = util::window_length(key.granularity);
    std::size_t closed = 0;
    for (; closed < groups.size(); ++closed) {
      const Group& group = groups[closed];
      // 64-bit: a window end may exceed the Day range.
      if ((group.window + std::int64_t{1}) * length > complete_before) break;
      if (group.positive_ids.empty()) continue;
      key.window = group.window;
      out.push_back(build_group(key, group, scratch));
    }
    groups.erase(groups.begin(), groups.begin() + static_cast<std::ptrdiff_t>(closed));
  }
  if (open_groups(chain) == 0) chain.stamps = StampTable{};
}

std::vector<TomoCnf> StreamingCnfBuilder::close_before(util::Day complete_before) {
  const std::size_t ranges = num_ranges(chains_.size());
  if (scratch_.size() < lanes()) scratch_.resize(lanes());  // workers index it
  std::vector<std::vector<TomoCnf>> by_range(ranges);
  for_each_range(ranges, [&](unsigned worker, std::size_t r, std::size_t begin, std::size_t end) {
    std::vector<TomoCnf> part;  // local, so the lanes share no vector header
    for (std::size_t c = begin; c < end; ++c) {
      close_chain(c, complete_before, scratch_[worker], part);
    }
    by_range[r] = std::move(part);
  });
  // Ranges are contiguous and in chain order, which is key order.
  std::size_t total = 0;
  for (const auto& part : by_range) total += part.size();
  std::vector<TomoCnf> out;
  out.reserve(total);
  for (auto& part : by_range) std::move(part.begin(), part.end(), std::back_inserter(out));
  return out;
}

std::vector<TomoCnf> StreamingCnfBuilder::advance_watermark(util::Day complete_before) {
  if (complete_before <= watermark_) return {};  // monotone: never lower it
  watermark_ = complete_before;
  return close_before(watermark_);
}

std::vector<TomoCnf> StreamingCnfBuilder::flush() {
  watermark_ = std::numeric_limits<util::Day>::max();
  return close_before(watermark_);
}

void StreamingCnfBuilder::save(util::ByteWriter& w) const {
  // Open groups in CnfKey order, each as its positive ids in
  // first-occurrence order followed by the sorted negative id set.
  w.size(open_windows());
  std::vector<PathPool::PathId> negatives;
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    CnfKey key = chain_key(c);
    for (std::size_t gi = 0; gi < kNumGranularities; ++gi) {
      key.granularity = static_cast<util::Granularity>(gi);
      for (const Group& group : chains_[c].groups[gi]) {
        key.window = group.window;
        save_cnf_key(w, key);
        util::save_vec(w, group.positive_ids, save_path_id);
        negatives = group.negative_ids;
        std::sort(negatives.begin(), negatives.end());
        util::save_vec(w, negatives, save_path_id);
      }
    }
  }
  w.i32(watermark_);
}

void StreamingCnfBuilder::load(util::ByteReader& r, std::int32_t num_urls,
                               std::size_t num_paths) {
  chains_.clear();
  const std::size_t n = r.size();
  CnfKey previous;
  for (std::size_t i = 0; i < n; ++i) {
    const CnfKey key = load_cnf_key(r);
    if (static_cast<std::size_t>(key.anomaly) >= censor::kNumAnomalies ||
        static_cast<std::size_t>(key.granularity) >= kNumGranularities || key.url_id < 0 ||
        (i > 0 && !(previous < key))) {
      throw util::SerdeError("StreamingCnfBuilder::load: invalid or unordered window key");
    }
    if (key.url_id >= num_urls) {
      throw util::SerdeError("StreamingCnfBuilder::load: url_id " + std::to_string(key.url_id) +
                             " outside the run's " + std::to_string(num_urls) + " URLs");
    }
    previous = key;
    Group group;
    group.window = key.window;
    util::load_vec(r, group.positive_ids, load_path_id);
    util::load_vec(r, group.negative_ids, load_path_id);
    const auto outside = [num_paths](PathPool::PathId id) {
      return id < 0 || static_cast<std::size_t>(id) >= num_paths;
    };
    if (std::any_of(group.positive_ids.begin(), group.positive_ids.end(), outside) ||
        std::any_of(group.negative_ids.begin(), group.negative_ids.end(), outside)) {
      throw util::SerdeError("StreamingCnfBuilder::load: path id outside the pool's " +
                             std::to_string(num_paths) + " paths");
    }
    Chain& chain = chain_at(key.url_id, key.anomaly);
    chain.groups[static_cast<std::size_t>(key.granularity)].push_back(std::move(group));
  }
  // Rebuild the dedupe stamps: replaying each chain's groups in window
  // order leaves every pair stamped with the latest window holding it.
  for (Chain& chain : chains_) {
    for (std::size_t gi = 0; gi < kNumGranularities; ++gi) {
      for (const Group& group : chain.groups[gi]) {
        for (const auto id : group.positive_ids) {
          chain.stamps.find_or_insert(stamp_key(id, true))[gi] = group.window;
        }
        for (const auto id : group.negative_ids) {
          chain.stamps.find_or_insert(stamp_key(id, false))[gi] = group.window;
        }
      }
    }
  }
  watermark_ = r.i32();
}

std::vector<TomoCnf> build_cnfs(const PathPool& pool, const std::vector<PathClause>& clauses,
                                const CnfBuildOptions& options, util::ThreadPool* threads) {
  if (threads == nullptr) {
    util::ThreadPool local;
    return build_cnfs(pool, clauses, options, &local);
  }
  StreamingCnfBuilder builder(pool, options, threads);
  builder.add(clauses);
  return builder.flush();
}

ChurnStripFilter::ChurnStripFilter(std::int32_t num_vantages, std::int32_t num_urls)
    : num_vantages_(static_cast<std::size_t>(std::max(num_vantages, 0))),
      num_urls_(static_cast<std::size_t>(std::max(num_urls, 0))),
      first_path_(num_vantages_ * num_urls_, kUnseen) {}

bool ChurnStripFilter::in_table(std::int64_t vantage, std::int64_t url_id) const {
  return vantage >= 0 && url_id >= 0 && static_cast<std::size_t>(vantage) < num_vantages_ &&
         static_cast<std::size_t>(url_id) < num_urls_;
}

std::size_t ChurnStripFilter::slot(topo::AsId vantage, std::int32_t url_id) const {
  return static_cast<std::size_t>(vantage) * num_urls_ + static_cast<std::size_t>(url_id);
}

void ChurnStripFilter::widen(topo::AsId vantage, std::int32_t url_id) {
  // Geometric growth, so a stream whose ids climb one by one re-lays
  // the table out O(log ids) times.
  const auto grow = [](std::size_t size, std::int32_t id) {
    const auto need = static_cast<std::size_t>(id) + 1;
    return need <= size ? size : std::max(need, 2 * size);
  };
  const std::size_t num_vantages = grow(num_vantages_, vantage);
  const std::size_t num_urls = grow(num_urls_, url_id);
  std::vector<PathPool::PathId> wider(num_vantages * num_urls, kUnseen);
  for (std::size_t v = 0; v < num_vantages_; ++v) {
    std::copy_n(first_path_.begin() + static_cast<std::ptrdiff_t>(v * num_urls_), num_urls_,
                wider.begin() + static_cast<std::ptrdiff_t>(v * num_urls));
  }
  first_path_ = std::move(wider);
  num_vantages_ = num_vantages;
  num_urls_ = num_urls;
}

bool ChurnStripFilter::keep(const PathPool& pool, const PathClause& clause) {
  if (clause.vantage < 0 || clause.url_id < 0) {
    throw std::out_of_range("ChurnStripFilter::keep: negative vantage " +
                            std::to_string(clause.vantage) + " or url " +
                            std::to_string(clause.url_id));
  }
  if (!in_table(clause.vantage, clause.url_id)) widen(clause.vantage, clause.url_id);
  // First path observed per (vantage, URL); clause order is the
  // platform's emission order, i.e. chronological within a URL.  A
  // recorded first path is never empty, so an equal id is a kept clause.
  PathPool::PathId& first = first_path_[slot(clause.vantage, clause.url_id)];
  if (first != kUnseen) return first == clause.path_id;
  if (pool.get(clause.path_id).empty()) return false;
  first = clause.path_id;
  return true;
}

void ChurnStripFilter::save(util::ByteWriter& w) const {
  w.size(static_cast<std::size_t>(
      std::count_if(first_path_.begin(), first_path_.end(),
                    [](PathPool::PathId id) { return id != kUnseen; })));
  // Row-major slots: (vantage, URL) order.
  for (std::size_t s = 0; s < first_path_.size(); ++s) {
    if (first_path_[s] == kUnseen) continue;
    w.i32(static_cast<topo::AsId>(s / num_urls_));
    w.i32(static_cast<std::int32_t>(s % num_urls_));
    save_path_id(w, first_path_[s]);
  }
}

void ChurnStripFilter::load(util::ByteReader& r, std::size_t num_paths) {
  std::vector<PathPool::PathId> loaded(first_path_.size(), kUnseen);
  const std::size_t n = r.size();
  std::size_t next_slot = 0;  // the lowest slot the next key may take
  for (std::size_t i = 0; i < n; ++i) {
    const topo::AsId vantage = r.i32();
    const std::int32_t url_id = r.i32();
    const PathPool::PathId id = load_path_id(r);
    if (!in_table(vantage, url_id)) {
      throw util::SerdeError("ChurnStripFilter::load: (vantage " + std::to_string(vantage) +
                             ", url " + std::to_string(url_id) + ") outside the " +
                             std::to_string(num_vantages_) + " x " +
                             std::to_string(num_urls_) + " table");
    }
    const std::size_t at = slot(vantage, url_id);
    if (at < next_slot) {
      throw util::SerdeError("ChurnStripFilter::load: repeated or unordered key");
    }
    if (id < 0 || static_cast<std::size_t>(id) >= num_paths) {
      throw util::SerdeError("ChurnStripFilter::load: path id " + std::to_string(id) +
                             " outside the pool's " + std::to_string(num_paths) + " paths");
    }
    loaded[at] = id;
    next_slot = at + 1;
  }
  first_path_ = std::move(loaded);
}

std::vector<PathClause> strip_path_churn(const PathPool& pool,
                                         const std::vector<PathClause>& clauses) {
  ChurnStripFilter filter(0, 0);  // widens to the ids it meets
  std::vector<std::uint8_t> kept(clauses.size());
  std::size_t num_kept = 0;
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    kept[i] = filter.keep(pool, clauses[i]) ? 1 : 0;
    num_kept += kept[i];
  }
  std::vector<PathClause> out;
  out.reserve(num_kept);
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    if (kept[i] != 0) out.push_back(clauses[i]);
  }
  return out;
}

}  // namespace ct::tomo
