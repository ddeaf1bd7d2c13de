#include "tomo/clause.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.h"
#include "util/serde.h"

namespace ct::tomo {

namespace {

std::uint64_t path_hash(std::span<const topo::AsId> path) {
  std::uint64_t h = path.size();
  for (const topo::AsId as : path) {
    h = (h ^ static_cast<std::uint32_t>(as)) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
  }
  return h;
}

std::uint64_t day_key_hash(topo::AsId vantage, std::int32_t url_id, PathPool::PathId path_id) {
  const std::uint64_t a = (std::uint64_t{static_cast<std::uint32_t>(vantage)} << 32) |
                          static_cast<std::uint32_t>(url_id);
  return util::mix64(a, static_cast<std::uint32_t>(path_id));
}

}  // namespace

std::size_t PathPool::find_slot(std::span<const topo::AsId> path, std::uint64_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const PathId id = slots_[i];
    if (id == kEmpty) return i;
    const auto at = static_cast<std::size_t>(id);
    if (hashes_[at] == hash && std::equal(paths_[at].begin(), paths_[at].end(), path.begin(),
                                          path.end())) {
      return i;
    }
  }
}

void PathPool::grow() {
  slots_.assign(std::max<std::size_t>(16, slots_.size() * 2), kEmpty);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t id = 0; id < paths_.size(); ++id) {
    std::size_t i = hashes_[id] & mask;
    while (slots_[i] != kEmpty) i = (i + 1) & mask;
    slots_[i] = static_cast<PathId>(id);
  }
}

PathPool::PathId PathPool::intern(std::span<const topo::AsId> path) {
  const std::uint64_t hash = path_hash(path);
  if (slots_.empty()) grow();
  std::size_t slot = find_slot(path, hash);
  if (slots_[slot] != kEmpty) return slots_[slot];
  const auto id = static_cast<PathId>(paths_.size());
  paths_.emplace_back(path.begin(), path.end());
  hashes_.push_back(hash);
  if (2 * paths_.size() > slots_.size()) {
    grow();
  } else {
    slots_[slot] = id;
  }
  return id;
}

void PathPool::save(util::ByteWriter& w) const {
  util::save_vec(w, paths_, [](util::ByteWriter& w, const std::vector<topo::AsId>& path) {
    util::save_vec(w, path, [](util::ByteWriter& w, topo::AsId as) { w.i32(as); });
  });
}

void PathPool::load(util::ByteReader& r, std::int32_t num_ases) {
  PathPool loaded;
  util::load_vec(r, loaded.paths_, [num_ases](util::ByteReader& r) {
    std::vector<topo::AsId> path;
    util::load_vec(r, path, [num_ases](util::ByteReader& r) {
      return util::load_id(r, num_ases, "PathPool::load: AS id");
    });
    return path;
  });
  for (const std::vector<topo::AsId>& path : loaded.paths_) loaded.hashes_.push_back(path_hash(path));
  std::size_t size = 16;
  while (size < 2 * loaded.paths_.size()) size *= 2;
  loaded.slots_.assign(size, kEmpty);
  for (std::size_t i = 0; i < loaded.paths_.size(); ++i) {
    const std::size_t slot = loaded.find_slot(loaded.paths_[i], loaded.hashes_[i]);
    if (loaded.slots_[slot] != kEmpty) {
      // intern() would answer the first id for both: ids would not survive.
      throw util::SerdeError("PathPool::load: path " + std::to_string(i) +
                             " duplicates an earlier path");
    }
    loaded.slots_[slot] = static_cast<PathId>(i);
  }
  *this = std::move(loaded);
}

void ClauseBuilder::on_measurement(const iclab::Measurement& m) {
  ++stats_.measurements;
  switch (net::infer_as_path_into(m.traceroutes, db_, infer_scratch_)) {
    case net::InferenceDrop::kNoMapping:
      ++stats_.dropped_no_mapping;
      return;
    case net::InferenceDrop::kTracerouteError:
      ++stats_.dropped_traceroute_error;
      return;
    case net::InferenceDrop::kAmbiguousGap:
      ++stats_.dropped_ambiguous_gap;
      return;
    case net::InferenceDrop::kDivergentPaths:
      ++stats_.dropped_divergent_paths;
      return;
    case net::InferenceDrop::kNone:
      break;
  }
  ++stats_.usable_measurements;
  const PathPool::PathId path_id = pool_.intern(infer_scratch_[0]);
  if (m.day != day_) {
    day_ = m.day;
    day_keys_.next_day();
  }
  DayKeys::Seen& seen = day_keys_.find_or_insert(m.vantage, m.url_id, path_id);
  for (const censor::Anomaly a : censor::kAllAnomalies) {
    ++stats_.clauses;
    const bool observed = m.detected[static_cast<std::size_t>(a)];
    const auto bit = static_cast<DayKeys::Seen>(1u << (2 * static_cast<unsigned>(a) + observed));
    if ((seen & bit) != 0) continue;  // a same-day repeat
    seen |= bit;
    PathClause clause;
    clause.path_id = path_id;
    clause.url_id = m.url_id;
    clause.vantage = m.vantage;
    clause.day = m.day;
    clause.anomaly = a;
    clause.observed = observed;
    clauses_.push_back(clause);
    seqs_.push_back(m.seq);
  }
}

void ClauseBuilder::DayKeys::next_day() {
  size_ = 0;
  if (++generation_ == 0) {  // wrapped: no stale slot may look live
    slots_.assign(slots_.size(), Slot{});
    generation_ = 1;
  }
}

ClauseBuilder::DayKeys::Seen& ClauseBuilder::DayKeys::find_or_insert(topo::AsId vantage,
                                                                     std::int32_t url_id,
                                                                     PathPool::PathId path_id) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = day_key_hash(vantage, url_id, path_id) & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.generation != generation_) {
      slot = Slot{generation_, vantage, url_id, path_id, 0};
      ++size_;
      return slot.seen;
    }
    if (slot.vantage == vantage && slot.url_id == url_id && slot.path_id == path_id) {
      return slot.seen;
    }
  }
}

void ClauseBuilder::DayKeys::grow() {
  std::vector<Slot> old(std::max<std::size_t>(64, slots_.size() * 2));
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.generation != generation_) continue;
    std::size_t i = day_key_hash(slot.vantage, slot.url_id, slot.path_id) & mask;
    while (slots_[i].generation == generation_) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void ClauseBuilder::absorb(std::span<const ClauseBuilder* const> shards) {
  std::vector<PathClause> clauses = hand_off_clauses(shards, pool_, &seqs_);
  if (clauses_.empty()) {
    clauses_ = std::move(clauses);
  } else {
    clauses_.insert(clauses_.end(), clauses.begin(), clauses.end());
  }
  for (const ClauseBuilder* shard : shards) stats_ += shard->stats_;
}

std::vector<PathClause> hand_off_clauses(std::span<const ClauseBuilder* const> shards,
                                         PathPool& pool, std::vector<std::int64_t>* seqs) {
  std::size_t total = 0;
  for (const ClauseBuilder* shard : shards) {
    const std::vector<std::int64_t>& s = shard->seqs();
    if (!std::is_sorted(s.begin(), s.end())) {
      throw std::invalid_argument("hand_off_clauses: a shard's stream is out of schedule order");
    }
    total += s.size();
  }
  std::vector<PathRemap> remaps;
  remaps.reserve(shards.size());
  for (const ClauseBuilder* shard : shards) remaps.emplace_back(shard->pool(), pool);

  std::vector<PathClause> out;
  out.reserve(total);
  if (seqs != nullptr) seqs->reserve(seqs->size() + total);
  // Translating in output order interns each path at its first use.
  const auto take = [&](std::size_t s, std::size_t begin, std::size_t end) {
    const ClauseBuilder& shard = *shards[s];
    for (std::size_t i = begin; i < end; ++i) {
      PathClause clause = shard.clauses()[i];
      clause.path_id = remaps[s](clause.path_id);
      out.push_back(clause);
    }
    if (seqs != nullptr) {
      seqs->insert(seqs->end(), shard.seqs().begin() + static_cast<std::ptrdiff_t>(begin),
                   shard.seqs().begin() + static_cast<std::ptrdiff_t>(end));
    }
  };

  // k-way merge: repeatedly take the run of the shard whose head is
  // least in (seq, shard) order, up to the next-least head.  Shards in
  // schedule order (day ranges in day order) make one run each, a plain
  // concatenation; vantage chunks make whole (epoch, destination)
  // blocks.  k stays small, so a linear scan of the heads is enough.
  std::vector<std::size_t> head(shards.size(), 0);
  const auto head_seq = [&](std::size_t s) {
    return head[s] < shards[s]->seqs().size() ? shards[s]->seqs()[head[s]]
                                              : std::numeric_limits<std::int64_t>::max();
  };
  while (out.size() < total) {
    std::size_t best = shards.size();
    std::size_t next = shards.size();
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (head[s] == shards[s]->seqs().size()) continue;
      if (best == shards.size() || head_seq(s) < head_seq(best)) {
        next = best;
        best = s;
      } else if (next == shards.size() || head_seq(s) < head_seq(next)) {
        next = s;
      }
    }
    const std::vector<std::int64_t>& s = shards[best]->seqs();
    std::size_t end = head[best];
    if (next == shards.size()) {
      end = s.size();
    } else {
      // Up to `next`'s head seq, and through it only when `best` is the
      // earlier shard: equal seqs go to the earlier shard first.
      const std::int64_t bound = head_seq(next);
      const bool take_ties = best < next;
      while (end < s.size() && (s[end] < bound || (take_ties && s[end] == bound))) ++end;
    }
    take(best, head[best], end);
    head[best] = end;
  }
  return out;
}

}  // namespace ct::tomo
