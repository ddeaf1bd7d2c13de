// Reference for the shard hand-off (tomo::hand_off_clauses): the
// merge-then-canonicalize algorithm it replaced, written against the
// public API only.  Every shard's clauses are appended in the given
// order with their path ids remapped into one merged pool, the whole
// stream is stable-sorted by seq, and the pool is renumbered in
// first-use order of the sorted stream.  Slow and memory-hungry on
// purpose: it is the obviously-correct shape the hand-off must match.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "tomo/clause.h"

namespace ct::tomo::test {

struct CanonicalStream {
  PathPool pool;
  std::vector<PathClause> clauses;
  std::vector<std::int64_t> seqs;
};

inline CanonicalStream merge_and_canonicalize(const std::vector<const ClauseBuilder*>& shards) {
  PathPool merged_pool;
  std::vector<PathClause> merged;
  std::vector<std::int64_t> merged_seqs;
  for (const ClauseBuilder* shard : shards) {
    PathRemap remap(shard->pool(), merged_pool);
    for (PathClause clause : shard->clauses()) {
      clause.path_id = remap(clause.path_id);
      merged.push_back(clause);
    }
    merged_seqs.insert(merged_seqs.end(), shard->seqs().begin(), shard->seqs().end());
  }

  std::vector<std::size_t> order(merged.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return merged_seqs[a] < merged_seqs[b];
  });

  CanonicalStream out;
  PathRemap renumber(merged_pool, out.pool);
  for (const std::size_t i : order) {
    PathClause clause = merged[i];
    clause.path_id = renumber(clause.path_id);
    out.clauses.push_back(clause);
    out.seqs.push_back(merged_seqs[i]);
  }
  return out;
}

}  // namespace ct::tomo::test
