#include "tomo/cnf_builder.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/serde.h"

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

StreamingCnfBuilder::StreamingCnfBuilder(CnfBuildOptions options)
    : require_positive_(options.require_positive),
      granularities_(canonical_granularities(std::move(options.granularities))) {}

StreamingCnfBuilder::StreamingCnfBuilder(CnfBuildOptions options, const PathPool* pool)
    : StreamingCnfBuilder(std::move(options)) {
  borrowed_pool_ = pool;
}

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

CnfKey StreamingCnfBuilder::chain_key(std::size_t index) {
  CnfKey key;
  key.url_id = static_cast<std::int32_t>(index / censor::kNumAnomalies);
  key.anomaly = static_cast<censor::Anomaly>(index % censor::kNumAnomalies);
  return key;
}

StreamingCnfBuilder::Chain& StreamingCnfBuilder::chain_at(std::int32_t url_id,
                                                          censor::Anomaly anomaly) {
  const auto a = static_cast<std::size_t>(anomaly);
  if (url_id < 0 || a >= censor::kNumAnomalies) {
    throw std::logic_error("StreamingCnfBuilder: invalid chain (url " + std::to_string(url_id) +
                           ", anomaly " + std::to_string(a) + ")");
  }
  const std::size_t index = static_cast<std::size_t>(url_id) * censor::kNumAnomalies + a;
  if (index >= chains_.size()) chains_.resize(index + 1);
  return chains_[index];
}

void StreamingCnfBuilder::add(const PathPool& pool, const PathClause& clause) {
  if (clause.day < watermark_) {
    throw std::logic_error("StreamingCnfBuilder::add: clause for day " +
                           std::to_string(clause.day) + " arrived after watermark " +
                           std::to_string(watermark_) + " (window already emitted)");
  }
  Chain& chain = chain_at(clause.url_id, clause.anomaly);
  // Check the ordering precondition before touching any state, so a
  // rejected clause leaves the builder as it was.
  for (const util::Granularity g : granularities_) {
    const auto& groups = chain.groups[static_cast<std::size_t>(g)];
    if (!groups.empty() && groups.back().window > util::window_of(clause.day, g)) {
      throw std::logic_error("StreamingCnfBuilder::add: clause for day " +
                             std::to_string(clause.day) + " of url " +
                             std::to_string(clause.url_id) +
                             " goes back to an earlier " + std::string(util::to_string(g)) +
                             " window (chain clauses must be day-ordered)");
    }
  }
  // Borrowed pool: ids are already canonical there, no re-intern.
  const PathPool::PathId path_id =
      borrowed_pool_ ? clause.path_id : pool_.intern(pool.get(clause.path_id));
  if (path_id < 0) {
    throw std::logic_error("StreamingCnfBuilder::add: invalid path id " +
                           std::to_string(path_id));
  }
  StampTable::Windows& stamps = chain.stamps.find_or_insert(stamp_key(path_id, clause.observed));
  for (const util::Granularity g : granularities_) {
    const std::size_t gi = static_cast<std::size_t>(g);
    const std::int32_t window = util::window_of(clause.day, g);
    auto& groups = chain.groups[gi];
    if (groups.empty() || groups.back().window != window) {
      groups.push_back(Group{window, {}, {}});
    }
    if (stamps[gi] == window) continue;  // already in this window's group
    stamps[gi] = window;
    Group& group = groups.back();
    (clause.observed ? group.positive_ids : group.negative_ids).push_back(path_id);
  }
}

StreamingCnfBuilder::AsSlot& StreamingCnfBuilder::touch(topo::AsId as) {
  if (as < 0) {
    throw std::logic_error("StreamingCnfBuilder: negative AS id " + std::to_string(as) +
                           " on a path");
  }
  const auto index = static_cast<std::size_t>(as);
  if (index >= as_slots_.size()) as_slots_.resize(index + 1);
  AsSlot& slot = as_slots_[index];
  if (slot.mark != generation_) {
    slot.mark = generation_;
    slot.clean = false;
    as_list_.push_back(as);
  }
  return slot;
}

TomoCnf StreamingCnfBuilder::build_group(const CnfKey& key, const Group& group) {
  TomoCnf tc;
  tc.key = key;

  // A new generation invalidates every slot at once; on wrap-around
  // the marks are cleared so an ancient mark cannot alias.
  if (++generation_ == 0) {
    for (AsSlot& slot : as_slots_) slot.mark = 0;
    generation_ = 1;
  }
  as_list_.clear();
  // ASes seen on any clean path (the negative units), then the rest of
  // the variable space: every AS observed in this CNF's clauses.
  for (const auto id : group.negative_ids) {
    for (const topo::AsId as : pool().get(id)) touch(as).clean = true;
  }
  for (const auto id : group.positive_ids) {
    for (const topo::AsId as : pool().get(id)) touch(as);
  }
  std::sort(as_list_.begin(), as_list_.end());
  tc.vars = as_list_;
  tc.cnf.num_vars = static_cast<std::int32_t>(tc.vars.size());
  for (std::size_t v = 0; v < tc.vars.size(); ++v) {
    as_slots_[static_cast<std::size_t>(tc.vars[v])].var = static_cast<sat::Var>(v);
  }

  // Negative units, in variable (= AS id) order.
  for (std::size_t v = 0; v < tc.vars.size(); ++v) {
    if (!as_slots_[static_cast<std::size_t>(tc.vars[v])].clean) continue;
    tc.cnf.add_clause({sat::Lit(static_cast<sat::Var>(v), /*negated=*/true)});
    ++tc.num_negative_units;
  }
  // Positive disjunctions, one literal per distinct AS in path order
  // (paths are a handful of hops, so a linear duplicate scan is cheapest).
  for (const auto id : group.positive_ids) {
    const auto& path = pool().get(id);
    std::vector<sat::Lit> lits;
    for (const topo::AsId as : path) {
      const sat::Lit lit(as_slots_[static_cast<std::size_t>(as)].var, /*negated=*/false);
      if (std::find(lits.begin(), lits.end(), lit) == lits.end()) lits.push_back(lit);
    }
    tc.cnf.add_clause(std::move(lits));
    ++tc.num_positive_clauses;
    tc.positive_paths.push_back(path);
  }
  return tc;
}

std::vector<TomoCnf> StreamingCnfBuilder::close_before(util::Day complete_before) {
  std::vector<TomoCnf> out;
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    Chain& chain = chains_[c];
    if (open_groups(chain) == 0) continue;
    CnfKey key = chain_key(c);
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
        if (require_positive_ && group.positive_ids.empty()) continue;
        key.window = group.window;
        out.push_back(build_group(key, group));
        ++emitted_;
      }
      groups.erase(groups.begin(), groups.begin() + static_cast<std::ptrdiff_t>(closed));
    }
    if (open_groups(chain) == 0) chain.stamps = StampTable{};
  }
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
  // pool_ is only populated in owned-pool mode; in borrowed mode it is
  // empty and this is one zero-length prefix.
  pool_.save(w);
  // Open groups in CnfKey order, each as its positive ids in
  // first-occurrence order followed by the sorted positive and
  // negative id sets.
  w.size(open_windows());
  std::vector<PathPool::PathId> sorted;
  const auto save_sorted = [&](const std::vector<PathPool::PathId>& ids) {
    sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    util::save_vec(w, sorted, save_path_id);
  };
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    CnfKey key = chain_key(c);
    for (std::size_t gi = 0; gi < kNumGranularities; ++gi) {
      key.granularity = static_cast<util::Granularity>(gi);
      for (const Group& group : chains_[c].groups[gi]) {
        key.window = group.window;
        save_cnf_key(w, key);
        util::save_vec(w, group.positive_ids, save_path_id);
        save_sorted(group.positive_ids);
        save_sorted(group.negative_ids);
      }
    }
  }
  w.i32(watermark_);
  w.i64(emitted_);
}

void StreamingCnfBuilder::load(util::ByteReader& r, std::int32_t num_urls) {
  pool_.load(r);
  chains_.clear();
  const std::size_t n = r.size();
  std::vector<PathPool::PathId> positive_set;
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
    util::load_vec(r, positive_set, load_path_id);  // implied by positive_ids
    util::load_vec(r, group.negative_ids, load_path_id);
    const auto negative = [](PathPool::PathId id) { return id < 0; };
    if (std::any_of(group.positive_ids.begin(), group.positive_ids.end(), negative) ||
        std::any_of(group.negative_ids.begin(), group.negative_ids.end(), negative)) {
      throw util::SerdeError("StreamingCnfBuilder::load: negative path id");
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
  emitted_ = r.i64();
}

std::vector<TomoCnf> build_cnfs(const PathPool& pool, const std::vector<PathClause>& clauses,
                                const CnfBuildOptions& options) {
  StreamingCnfBuilder builder(options, &pool);
  for (const PathClause& clause : clauses) builder.add(pool, clause);
  return builder.flush();
}

bool ChurnStripFilter::keep(const PathPool& pool, const PathClause& clause) {
  if (pool.get(clause.path_id).empty()) return false;
  const auto key = std::make_pair(clause.vantage, clause.url_id);
  // First path observed per (vantage, URL); clause order is the
  // platform's emission order, i.e. chronological within a URL.
  const auto it = first_path_.emplace(key, clause.path_id).first;
  return it->second == clause.path_id;
}

void ChurnStripFilter::save(util::ByteWriter& w) const {
  util::save_map(
      w, first_path_,
      [](util::ByteWriter& w, const std::pair<topo::AsId, std::int32_t>& key) {
        w.i32(key.first);
        w.i32(key.second);
      },
      save_path_id);
}

void ChurnStripFilter::load(util::ByteReader& r) {
  util::load_map(
      r, first_path_,
      [](util::ByteReader& r) {
        const topo::AsId vantage = r.i32();
        const std::int32_t url_id = r.i32();
        return std::make_pair(vantage, url_id);
      },
      load_path_id);
}

std::vector<PathClause> strip_path_churn(const PathPool& pool,
                                         const std::vector<PathClause>& clauses) {
  ChurnStripFilter filter;
  std::vector<PathClause> out;
  for (const PathClause& clause : clauses) {
    if (filter.keep(pool, clause)) out.push_back(clause);
  }
  return out;
}

}  // namespace ct::tomo
