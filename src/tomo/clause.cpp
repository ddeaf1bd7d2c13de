#include "tomo/clause.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "util/serde.h"

namespace ct::tomo {

PathPool::PathId PathPool::intern(const std::vector<topo::AsId>& path) {
  // Look up before inserting: emplace would build (and free) a node and
  // a copy of the path even when the path is already interned.
  const auto it = index_.lower_bound(path);
  if (it != index_.end() && it->first == path) return it->second;
  const auto id = static_cast<PathId>(paths_.size());
  index_.emplace_hint(it, path, id);
  paths_.push_back(path);
  return id;
}

void PathPool::save(util::ByteWriter& w) const {
  util::save_vec(w, paths_, [](util::ByteWriter& w, const std::vector<topo::AsId>& path) {
    util::save_vec(w, path, [](util::ByteWriter& w, topo::AsId as) { w.i32(as); });
  });
}

void PathPool::load(util::ByteReader& r) {
  std::vector<std::vector<topo::AsId>> paths;
  util::load_vec(r, paths, [](util::ByteReader& r) {
    std::vector<topo::AsId> path;
    util::load_vec(r, path, [](util::ByteReader& r) { return topo::AsId{r.i32()}; });
    return path;
  });
  std::map<std::vector<topo::AsId>, PathId> index;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (!index.emplace(paths[i], static_cast<PathId>(i)).second) {
      // intern() would answer the first id for both: ids would not survive.
      throw util::SerdeError("PathPool::load: path " + std::to_string(i) +
                             " duplicates an earlier path");
    }
  }
  index_ = std::move(index);
  paths_ = std::move(paths);
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
  for (const censor::Anomaly a : censor::kAllAnomalies) {
    PathClause clause;
    clause.path_id = path_id;
    clause.url_id = m.url_id;
    clause.vantage = m.vantage;
    clause.day = m.day;
    clause.anomaly = a;
    clause.observed = m.detected[static_cast<std::size_t>(a)];
    clauses_.push_back(clause);
    seqs_.push_back(m.seq);
    ++stats_.clauses;
  }
}

void ClauseBuilder::merge(ClauseBuilder&& other) {
  stats_ += other.stats_;
  PathRemap remap(other.pool_, pool_);
  for (PathClause clause : other.clauses_) {
    clause.path_id = remap(clause.path_id);
    clauses_.push_back(clause);
  }
  seqs_.insert(seqs_.end(), other.seqs_.begin(), other.seqs_.end());
}

void ClauseBuilder::reserve(std::size_t clauses) {
  clauses_.reserve(clauses);
  seqs_.reserve(clauses);
}

void ClauseBuilder::canonicalize() {
  // Day-split shards merged in plan order (and any serial stream) are
  // already in schedule order: only vantage-split grids need the sort.
  if (!std::is_sorted(seqs_.begin(), seqs_.end())) {
    std::vector<std::size_t> order(clauses_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    // Stable: a measurement's clauses share a seq and keep anomaly order.
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) { return seqs_[a] < seqs_[b]; });
    std::vector<PathClause> clauses;
    std::vector<std::int64_t> seqs;
    clauses.reserve(clauses_.size());
    seqs.reserve(seqs_.size());
    for (const std::size_t i : order) {
      clauses.push_back(clauses_[i]);
      seqs.push_back(seqs_[i]);
    }
    clauses_ = std::move(clauses);
    seqs_ = std::move(seqs);
  }
  PathPool pool;
  PathRemap remap(pool_, pool);
  for (PathClause& clause : clauses_) clause.path_id = remap(clause.path_id);
  pool_ = std::move(pool);
}

}  // namespace ct::tomo
