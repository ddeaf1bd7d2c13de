#include "tomo/cnf_builder.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/serde.h"
#include "util/thread_pool.h"

namespace ct::tomo {

void save_cnf_key(util::ByteWriter& w, const CnfKey& key) {
  w.i32(key.url_id);
  w.u8(static_cast<std::uint8_t>(key.anomaly));
  w.u8(static_cast<std::uint8_t>(key.granularity));
  w.i32(key.window);
}

CnfKey load_cnf_key(util::ByteReader& r) {
  CnfKey key;
  key.url_id = r.i32();
  key.anomaly = util::load_enum<censor::Anomaly>(r, censor::kNumAnomalies);
  key.granularity = util::load_enum<util::Granularity>(r, util::kAllGranularities.size());
  key.window = r.i32();
  return key;
}

namespace {

void save_path_id(util::ByteWriter& w, PathPool::PathId id) { w.i32(id); }
PathPool::PathId load_path_id(util::ByteReader& r) { return r.i32(); }
void save_entry(util::ByteWriter& w, std::uint32_t e) { w.u32(e); }
std::uint32_t load_entry(util::ByteReader& r) { return r.u32(); }

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

sat::Cnf to_cnf(const TomoCnf& tc) {
  sat::Cnf cnf;
  cnf.num_vars = static_cast<std::int32_t>(tc.vars.size());
  cnf.clauses.reserve(static_cast<std::size_t>(tc.num_negative_units) + tc.clause_ends.size());
  for (std::size_t v = 0; v < tc.clean.size(); ++v) {
    if (tc.clean[v] != 0) cnf.add_clause({sat::Lit(static_cast<sat::Var>(v), /*negated=*/true)});
  }
  for (std::size_t i = 0; i < tc.clause_ends.size(); ++i) {
    std::vector<sat::Lit> lits;
    for (const sat::Var v : tc.clause(i)) lits.emplace_back(v, /*negated=*/false);
    cnf.add_clause(std::move(lits));
  }
  return cnf;
}

void write_dimacs(std::ostream& out, const sat::Cnf& cnf,
                  const std::vector<std::string>& comments) {
  for (const auto& comment : comments) out << "c " << comment << "\n";
  out << "p cnf " << cnf.num_vars << " " << cnf.clauses.size() << "\n";
  for (const auto& clause : cnf.clauses) {
    for (const sat::Lit l : clause) out << l.to_dimacs() << " ";
    out << "0\n";
  }
}

std::string to_dimacs_string(const sat::Cnf& cnf, const std::vector<std::string>& comments) {
  std::ostringstream out;
  write_dimacs(out, cnf, comments);
  return out.str();
}

StreamingCnfBuilder::Stamp& StreamingCnfBuilder::StampTable::find_or_insert(std::uint32_t key) {
  if (2 * (size_ + 1) > slots_.size()) grow();  // load factor <= 1/2
  const std::size_t mask = slots_.size() - 1;
  // Fibonacci hashing: the top bits_ bits of key * 2^64/phi.
  std::size_t i = static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> (64 - bits_));
  while (slots_[i].key != key) {
    if (slots_[i].key == kEmpty) {
      slots_[i].key = key;
      slots_[i].stamp.windows.fill(-1);
      slots_[i].stamp.kept = 0;
      ++size_;
      break;
    }
    i = (i + 1) & mask;
  }
  return slots_[i].stamp;
}

void StreamingCnfBuilder::StampTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  bits_ = old.empty() ? 4 : bits_ + 1;
  slots_.assign(std::size_t{1} << bits_, Slot{});
  size_ = 0;
  for (const Slot& slot : old) {
    if (slot.key != kEmpty) find_or_insert(slot.key) = slot.stamp;
  }
}

StreamingCnfBuilder::StreamingCnfBuilder(const PathPool& pool, std::int32_t num_urls,
                                         CnfBuildOptions options, util::ThreadPool* threads)
    : granularities_(canonical_granularities(std::move(options.granularities))),
      pool_(&pool),
      threads_(threads),
      chains_(static_cast<std::size_t>(std::max(num_urls, 0)) * censor::kNumAnomalies) {
  for (const util::Granularity g : options.kept_granularities) {
    if (std::find(granularities_.begin(), granularities_.end(), g) == granularities_.end()) {
      throw std::invalid_argument("StreamingCnfBuilder: kept granularity " +
                                  std::string(util::to_string(g)) + " is not built");
    }
    kept_mask_ |= static_cast<std::uint8_t>(1u << static_cast<unsigned>(g));
  }
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

bool StreamingCnfBuilder::has_chain(std::int32_t url_id, censor::Anomaly anomaly) const {
  return url_id >= 0 && static_cast<std::size_t>(anomaly) < censor::kNumAnomalies &&
         chain_index(url_id, anomaly) < chains_.size();
}

bool StreamingCnfBuilder::has_path(PathPool::PathId id) const {
  return id >= 0 && static_cast<std::size_t>(id) < pool_->size();
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

void StreamingCnfBuilder::add(std::span<const PathClause> clauses,
                              std::span<const std::uint8_t> kept) {
  // Every check that does not depend on chain state runs before any
  // state is touched, so such a rejected batch leaves no trace.
  if (!kept.empty() && kept.size() != clauses.size()) {
    throw std::logic_error("StreamingCnfBuilder::add: " + std::to_string(kept.size()) +
                           " kept flags for " + std::to_string(clauses.size()) + " clauses");
  }
  for (const PathClause& clause : clauses) {
    if (clause.day < watermark_) {
      throw std::logic_error("StreamingCnfBuilder::add: clause for day " +
                             std::to_string(clause.day) + " arrived after watermark " +
                             std::to_string(watermark_) + " (window already emitted)");
    }
    if (!has_chain(clause.url_id, clause.anomaly)) {
      throw std::logic_error("StreamingCnfBuilder::add: url " + std::to_string(clause.url_id) +
                             " or its anomaly outside the chain table");
    }
    if (!has_path(clause.path_id)) {
      throw std::logic_error("StreamingCnfBuilder::add: invalid path id " +
                             std::to_string(clause.path_id));
    }
  }
  if (clauses.empty()) return;

  // Each range's worker scans the whole batch and files the clauses of
  // its own chains, in batch order.  The stream is day-major, so the
  // day's windows are recomputed only when the day changes.
  for_each_range(num_ranges(clauses.size()),
                 [&](unsigned, std::size_t, std::size_t begin, std::size_t end) {
                   util::Day day = clauses.front().day;
                   Windows windows = windows_of(day);
                   for (std::size_t i = 0; i < clauses.size(); ++i) {
                     const PathClause& clause = clauses[i];
                     const std::size_t index = chain_index(clause.url_id, clause.anomaly);
                     if (index < begin || index >= end) continue;
                     if (clause.day != day) {
                       day = clause.day;
                       windows = windows_of(day);
                     }
                     file(chains_[index], clause, !kept.empty() && kept[i] != 0, windows);
                   }
                 });
}

StreamingCnfBuilder::Windows StreamingCnfBuilder::windows_of(util::Day day) {
  Windows windows{};
  for (const util::Granularity g : util::kAllGranularities) {
    windows[static_cast<std::size_t>(g)] = util::window_of(day, g);
  }
  return windows;
}

void StreamingCnfBuilder::file(Chain& chain, const PathClause& clause, bool kept,
                               const Windows& windows) const {
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
  Stamp& stamp = chain.stamps.find_or_insert(stamp_key(clause.path_id, clause.observed));
  for (const util::Granularity g : granularities_) {
    const std::size_t gi = static_cast<std::size_t>(g);
    const std::int32_t window = windows[gi];
    auto& groups = chain.groups[gi];
    if (groups.empty() || groups.back().window != window) {
      groups.push_back(Group{window, {}, {}});
    }
    const unsigned bit = kept ? kept_mask_ & (1u << gi) : 0;
    Group& group = groups.back();
    if (stamp.windows[gi] == window) {  // already in this window's group
      if ((bit & ~stamp.kept) != 0) {
        stamp.kept = static_cast<std::uint8_t>(stamp.kept | bit);
        mark_kept(clause.observed ? group.positives : group.negatives, clause.path_id);
      }
      continue;
    }
    stamp.windows[gi] = window;
    stamp.kept = static_cast<std::uint8_t>((stamp.kept & ~(1u << gi)) | bit);
    (clause.observed ? group.positives : group.negatives)
        .push_back(entry(clause.path_id, bit != 0 ? 1 : 0));
  }
}

void StreamingCnfBuilder::mark_kept(std::vector<Entry>& entries, PathPool::PathId id) {
  // A kept repeat of an unkept entry (another vantage inferred the same
  // path): under 5% of the default year's filings, so a scan finds the
  // entry.
  *std::find_if(entries.begin(), entries.end(), [id](Entry e) { return path_of(e) == id; }) |= 1;
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

TomoCnf StreamingCnfBuilder::build_group(const CnfKey& key, const Group& group, Entry need,
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
  const auto skip = [need](Entry e) { return (e & need) != need; };
  for (const Entry e : group.negatives) {
    if (skip(e)) continue;
    for (const topo::AsId as : pool_->get(path_of(e))) scratch.touch(as).clean = true;
  }
  std::size_t path_volume = 0;
  std::size_t num_paths = 0;
  for (const Entry e : group.positives) {
    if (skip(e)) continue;
    const std::vector<topo::AsId>& path = pool_->get(path_of(e));
    for (const topo::AsId as : path) scratch.touch(as);
    path_volume += path.size();
    ++num_paths;
  }
  std::sort(scratch.as_list.begin(), scratch.as_list.end());
  tc.vars = scratch.as_list;
  tc.clean.resize(tc.vars.size());
  for (std::size_t v = 0; v < tc.vars.size(); ++v) {
    AsSlot& slot = slots[static_cast<std::size_t>(tc.vars[v])];
    slot.var = static_cast<sat::Var>(v);
    tc.clean[v] = slot.clean ? 1 : 0;
    tc.num_negative_units += slot.clean ? 1 : 0;
  }

  // Positive clauses, one variable per distinct AS in path order (paths
  // are a handful of hops, so a linear duplicate scan is cheapest), each
  // beside a copy of its path.
  tc.clause_vars.reserve(path_volume);
  tc.clause_ends.reserve(num_paths);
  tc.path_ases.reserve(path_volume);
  tc.path_ends.reserve(num_paths);
  for (const Entry e : group.positives) {
    if (skip(e)) continue;
    const std::vector<topo::AsId>& path = pool_->get(path_of(e));
    const std::size_t begin = tc.clause_vars.size();
    for (const topo::AsId as : path) {
      const sat::Var var = slots[static_cast<std::size_t>(as)].var;
      if (std::find(tc.clause_vars.begin() + static_cast<std::ptrdiff_t>(begin),
                    tc.clause_vars.end(), var) == tc.clause_vars.end()) {
        tc.clause_vars.push_back(var);
      }
    }
    tc.clause_ends.push_back(static_cast<std::uint32_t>(tc.clause_vars.size()));
    tc.path_ases.insert(tc.path_ases.end(), path.begin(), path.end());
    tc.path_ends.push_back(static_cast<std::uint32_t>(tc.path_ases.size()));
  }
  tc.num_positive_clauses = static_cast<std::int32_t>(num_paths);
  return tc;
}

void StreamingCnfBuilder::close_chain(std::size_t index, util::Day complete_before,
                                      EmitScratch& scratch, EmittedCnfs& out) {
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
      if (group.positives.empty()) continue;
      key.window = group.window;
      out.main.push_back(build_group(key, group, 0, scratch));
      if (((kept_mask_ >> gi) & 1) != 0 &&
          std::any_of(group.positives.begin(), group.positives.end(),
                      [](Entry e) { return (e & 1) != 0; })) {
        out.kept.push_back(build_group(key, group, 1, scratch));
      }
    }
    groups.erase(groups.begin(), groups.begin() + static_cast<std::ptrdiff_t>(closed));
  }
  if (open_groups(chain) == 0) chain.stamps = StampTable{};
}

EmittedCnfs StreamingCnfBuilder::close_before(util::Day complete_before) {
  const std::size_t ranges = num_ranges(chains_.size());
  if (scratch_.size() < lanes()) scratch_.resize(lanes());  // workers index it
  std::vector<EmittedCnfs> by_range(ranges);
  for_each_range(ranges, [&](unsigned worker, std::size_t r, std::size_t begin, std::size_t end) {
    EmittedCnfs part;  // local, so the lanes share no vector header
    for (std::size_t c = begin; c < end; ++c) {
      close_chain(c, complete_before, scratch_[worker], part);
    }
    by_range[r] = std::move(part);
  });
  // Ranges are contiguous and in chain order, which is key order.
  std::size_t mains = 0;
  std::size_t kepts = 0;
  for (const EmittedCnfs& part : by_range) {
    mains += part.main.size();
    kepts += part.kept.size();
  }
  EmittedCnfs out;
  out.main.reserve(mains);
  out.kept.reserve(kepts);
  for (EmittedCnfs& part : by_range) {
    std::move(part.main.begin(), part.main.end(), std::back_inserter(out.main));
    std::move(part.kept.begin(), part.kept.end(), std::back_inserter(out.kept));
  }
  return out;
}

EmittedCnfs StreamingCnfBuilder::advance_watermark(util::Day complete_before) {
  if (complete_before <= watermark_) return {};  // monotone: never lower it
  watermark_ = complete_before;
  return close_before(watermark_);
}

EmittedCnfs StreamingCnfBuilder::flush() {
  watermark_ = std::numeric_limits<util::Day>::max();
  return close_before(watermark_);
}

void StreamingCnfBuilder::save(util::ByteWriter& w) const {
  // Open groups in CnfKey order, each as its positive entries in
  // first-occurrence order followed by its negative entries, sorted.
  w.size(open_windows());
  std::vector<Entry> negatives;
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    CnfKey key = chain_key(c);
    for (std::size_t gi = 0; gi < kNumGranularities; ++gi) {
      key.granularity = static_cast<util::Granularity>(gi);
      for (const Group& group : chains_[c].groups[gi]) {
        key.window = group.window;
        save_cnf_key(w, key);
        util::save_vec(w, group.positives, save_entry);
        negatives = group.negatives;
        std::sort(negatives.begin(), negatives.end());
        util::save_vec(w, negatives, save_entry);
      }
    }
  }
  w.i32(watermark_);
}

void StreamingCnfBuilder::load(util::ByteReader& r) {
  std::vector<Chain> chains(chains_.size());
  const std::size_t n = r.size();
  CnfKey previous;
  for (std::size_t i = 0; i < n; ++i) {
    const CnfKey key = load_cnf_key(r);
    if (!has_chain(key.url_id, key.anomaly) || key.window < 0 || (i > 0 && !(previous < key))) {
      throw util::SerdeError("StreamingCnfBuilder::load: window key (url " +
                             std::to_string(key.url_id) +
                             ") outside the chain table, negative or out of order");
    }
    previous = key;
    Group group;
    group.window = key.window;
    util::load_vec(r, group.positives, load_entry);
    util::load_vec(r, group.negatives, load_entry);
    const std::size_t gi = static_cast<std::size_t>(key.granularity);
    const Entry kept_bit = (kept_mask_ >> gi) & 1;
    const auto invalid = [this, kept_bit](Entry e) {
      return !has_path(path_of(e)) || (e & 1) > kept_bit;
    };
    if (std::any_of(group.positives.begin(), group.positives.end(), invalid) ||
        std::any_of(group.negatives.begin(), group.negatives.end(), invalid)) {
      throw util::SerdeError("StreamingCnfBuilder::load: path id outside the pool's " +
                             std::to_string(pool_->size()) +
                             " paths, or a kept bit at a granularity that keeps none");
    }
    Chain& chain = chains[chain_index(key.url_id, key.anomaly)];
    chain.groups[gi].push_back(std::move(group));
  }
  // Rebuild the dedupe stamps: replaying each chain's groups in window
  // order leaves every pair stamped with the latest window holding it.
  // A pair already stamped with the window being replayed is a path
  // filed twice.  No kept bit is stamped: a kept repeat then finds its
  // entry already kept.
  for (Chain& chain : chains) {
    for (std::size_t gi = 0; gi < kNumGranularities; ++gi) {
      for (const Group& group : chain.groups[gi]) {
        for (const bool observed : {true, false}) {
          for (const Entry e : observed ? group.positives : group.negatives) {
            std::int32_t& stamp =
                chain.stamps.find_or_insert(stamp_key(path_of(e), observed)).windows[gi];
            if (stamp == group.window) {
              throw util::SerdeError("StreamingCnfBuilder::load: path id " +
                                     std::to_string(path_of(e)) + " twice in one window group");
            }
            stamp = group.window;
          }
        }
      }
    }
  }
  const util::Day watermark = r.i32();
  chains_ = std::move(chains);
  watermark_ = watermark;
}

std::vector<TomoCnf> build_cnfs(const PathPool& pool, const std::vector<PathClause>& clauses,
                                const CnfBuildOptions& options, util::ThreadPool* threads) {
  if (threads == nullptr) {
    util::ThreadPool local;
    return build_cnfs(pool, clauses, options, &local);
  }
  std::int32_t max_url = -1;
  for (const PathClause& clause : clauses) max_url = std::max(max_url, clause.url_id);
  StreamingCnfBuilder builder(pool, max_url + 1, options, threads);
  builder.add(clauses);
  return builder.flush().main;
}

ChurnStripFilter::ChurnStripFilter(const PathPool& pool, std::int32_t num_vantages,
                                   std::int32_t num_urls)
    : pool_(&pool),
      num_vantages_(static_cast<std::size_t>(std::max(num_vantages, 0))),
      num_urls_(static_cast<std::size_t>(std::max(num_urls, 0))),
      first_path_(num_vantages_ * num_urls_, kUnseen) {}

bool ChurnStripFilter::accepts(std::int64_t vantage, std::int64_t url_id,
                               PathPool::PathId id) const {
  return vantage >= 0 && url_id >= 0 && static_cast<std::size_t>(vantage) < num_vantages_ &&
         static_cast<std::size_t>(url_id) < num_urls_ && id >= 0 &&
         static_cast<std::size_t>(id) < pool_->size();
}

std::size_t ChurnStripFilter::slot(topo::AsId vantage, std::int32_t url_id) const {
  return static_cast<std::size_t>(vantage) * num_urls_ + static_cast<std::size_t>(url_id);
}

bool ChurnStripFilter::keep(const PathClause& clause) {
  if (!accepts(clause.vantage, clause.url_id, clause.path_id)) {
    throw std::out_of_range("ChurnStripFilter::keep: vantage " + std::to_string(clause.vantage) +
                            ", url " + std::to_string(clause.url_id) + " or path " +
                            std::to_string(clause.path_id) + " outside the table or pool");
  }
  // First path observed per (vantage, URL); clause order is the
  // platform's emission order, i.e. chronological within a URL.  A
  // recorded first path is never empty, so an equal id is a kept clause.
  PathPool::PathId& first = first_path_[slot(clause.vantage, clause.url_id)];
  if (first != kUnseen) return first == clause.path_id;
  if (pool_->get(clause.path_id).empty()) return false;
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

void ChurnStripFilter::load(util::ByteReader& r) {
  std::vector<PathPool::PathId> loaded(first_path_.size(), kUnseen);
  const std::size_t n = r.size();
  std::size_t next_slot = 0;  // the lowest slot the next key may take
  for (std::size_t i = 0; i < n; ++i) {
    const topo::AsId vantage = r.i32();
    const std::int32_t url_id = r.i32();
    const PathPool::PathId id = load_path_id(r);
    if (!accepts(vantage, url_id, id)) {
      throw util::SerdeError("ChurnStripFilter::load: vantage " + std::to_string(vantage) +
                             ", url " + std::to_string(url_id) + " or path " +
                             std::to_string(id) + " outside the table or pool");
    }
    const std::size_t at = slot(vantage, url_id);
    if (at < next_slot) {
      throw util::SerdeError("ChurnStripFilter::load: repeated or unordered key");
    }
    loaded[at] = id;
    next_slot = at + 1;
  }
  first_path_ = std::move(loaded);
}

std::vector<PathClause> strip_path_churn(const PathPool& pool,
                                         const std::vector<PathClause>& clauses) {
  topo::AsId max_vantage = -1;
  std::int32_t max_url = -1;
  for (const PathClause& clause : clauses) {
    max_vantage = std::max(max_vantage, clause.vantage);
    max_url = std::max(max_url, clause.url_id);
  }
  ChurnStripFilter filter(pool, max_vantage + 1, max_url + 1);
  std::vector<std::uint8_t> kept(clauses.size());
  std::size_t num_kept = 0;
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    kept[i] = filter.keep(clauses[i]) ? 1 : 0;
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
