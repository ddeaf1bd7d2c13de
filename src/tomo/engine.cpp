#include "tomo/engine.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "util/serde.h"
#include "util/thread_pool.h"

namespace ct::tomo {

CnfVerdict CnfAnalyzer::analyze(const TomoCnf& tc, const AnalysisOptions& options) {
  CnfVerdict verdict;
  verdict.key = tc.key;
  verdict.num_vars = tc.vars.size();

  // The one load this verdict is allowed; the selector routes the CNF
  // to a backend by its shape and the query workload ahead.  Counts are
  // only ever read when count_cap > 2 (below, and count_cap = 0 keeps
  // the historical "always 0" result) — the workload must say so, or
  // the selector would pick a counting backend for a count nobody asks
  // for (count_cap = 0 means *unbounded* at the session/selector level).
  const sat::BackendWorkload workload{options.count_cap,
                                      options.resolve_counts && options.count_cap > 2};
  session_.load(tc.cnf, options.backend.plan(sat::shape_of(tc.cnf), workload));

  // Class first: at most two models enumerated.  Counts beyond 2 are
  // resolved lazily — class-0/1 CNFs already have their exact count, and
  // class-2 CNFs only pay for the full cap when a caller (Figure 4)
  // actually reads the histogram.
  const sat::SolutionClassification cls = session_.classify();
  verdict.solution_class = cls.solution_class;
  if (options.resolve_counts && verdict.solution_class == 2 && options.count_cap > 2) {
    verdict.capped_count = session_.count_models_capped(options.count_cap);
  } else {
    // Classification already counted exactly up to 2 (count_cap = 0
    // keeps the historical "always 0" result).
    verdict.capped_count = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(verdict.solution_class), options.count_cap);
  }

  if (verdict.solution_class == 1) {
    for (const sat::Lit l : *cls.unique_model) {
      if (!l.negated()) verdict.censors.push_back(tc.vars[static_cast<std::size_t>(l.var())]);
    }
    std::sort(verdict.censors.begin(), verdict.censors.end());
  } else if (verdict.solution_class == 2) {
    const sat::PotentialTrueResult split = session_.potential_true_vars();
    for (const sat::Var v : split.potential_true) {
      verdict.potential_censors.push_back(tc.vars[static_cast<std::size_t>(v)]);
    }
    for (const sat::Var v : split.always_false) {
      verdict.definite_noncensors.push_back(tc.vars[static_cast<std::size_t>(v)]);
    }
    std::sort(verdict.potential_censors.begin(), verdict.potential_censors.end());
    std::sort(verdict.definite_noncensors.begin(), verdict.definite_noncensors.end());
    verdict.reduction_fraction =
        verdict.num_vars == 0
            ? 0.0
            : static_cast<double>(verdict.definite_noncensors.size()) /
                  static_cast<double>(verdict.num_vars);
  }
  return verdict;
}

CnfVerdict analyze_cnf(const TomoCnf& tc, const AnalysisOptions& options) {
  CnfAnalyzer arena;
  return arena.analyze(tc, options);
}

void EngineStats::add_arena(const sat::SessionStats& s) {
  cnf_loads += s.cnf_loads;
  solve_calls += s.solve_calls;
  models_found += s.models_found;
  fresh_clauses += s.fresh_clauses;
  for (std::size_t k = 0; k < sat::kNumBackendKinds; ++k) {
    backends[k].selected += s.backends[k].selected;
    backends[k].served += s.backends[k].served;
    backends[k].escalated += s.backends[k].escalated;
  }
  portfolio += s.portfolio;
  ++arenas;
}

namespace {

void accumulate(EngineStats* stats, const sat::SessionStats& s) {
  if (stats == nullptr) return;
  stats->add_arena(s);
}

}  // namespace

std::vector<CnfVerdict> analyze_cnfs(const std::vector<TomoCnf>& cnfs,
                                     const AnalysisOptions& options,
                                     EngineStats* stats) {
  if (stats != nullptr) *stats = EngineStats{};
  std::vector<CnfVerdict> out(cnfs.size());

  unsigned threads =
      options.num_threads == 0 ? util::ThreadPool::hardware_threads() : options.num_threads;
  // Thread-budget rule (README "Portfolio racing"): every racing solve
  // runs `width` members concurrently, so divide the worker count by
  // the racing width to keep workers x width within the same budget.
  threads = std::max(1u, threads / options.backend.racing_width());
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(cnfs.size(), 1)));

  if (threads <= 1) {
    CnfAnalyzer arena;
    for (std::size_t i = 0; i < cnfs.size(); ++i) out[i] = arena.analyze(cnfs[i], options);
    accumulate(stats, arena.session_stats());
    return out;
  }

  util::ThreadPool pool(threads);
  std::vector<CnfAnalyzer> arenas(pool.size());
  pool.for_each_index(cnfs.size(), [&](unsigned worker, std::size_t i) {
    out[i] = arenas[worker].analyze(cnfs[i], options);
  });
  for (const CnfAnalyzer& arena : arenas) accumulate(stats, arena.session_stats());
  return out;
}

StreamingAnalyzer::StreamingAnalyzer(util::BoundedQueue<EmittedCnf>& queue,
                                     StreamingAnalyzerOptions options)
    : queue_(queue), options_(std::move(options)) {
  const unsigned configured = options_.analysis.num_threads == 0
                                  ? util::ThreadPool::hardware_threads()
                                  : options_.analysis.num_threads;
  // Same thread-budget rule as analyze_cnfs: workers x racing width
  // stays within the configured budget.
  const unsigned threads =
      std::max(1u, configured / options_.analysis.backend.racing_width());
  workers_.reserve(threads);
  try {
    for (unsigned w = 0; w < threads; ++w) {
      workers_.push_back(std::make_unique<Worker>());
      Worker* worker = workers_.back().get();
      worker->thread = std::thread([this, worker] {
        try {
          while (std::optional<EmittedCnf> item = queue_.pop()) {
            CnfVerdict verdict = worker->arena.analyze(item->cnf, options_.analysis);
            deliver(std::move(*item), std::move(verdict));
          }
        } catch (...) {
          worker->error = std::current_exception();
          // Keep draining (and discarding) so a full queue never blocks
          // the producers after this worker bowed out.
          while (queue_.pop()) {
          }
        }
      });
    }
  } catch (...) {
    // A failed spawn (e.g. thread exhaustion) must not strand the
    // already-started workers on an open queue — and unwinding with
    // joinable std::threads would terminate().
    queue_.close();
    join_all();
    throw;
  }
}

StreamingAnalyzer::StreamingAnalyzer(util::BoundedQueue<EmittedCnf>& queue,
                                     const AnalysisOptions& options)
    : StreamingAnalyzer(queue, StreamingAnalyzerOptions{options, true, nullptr, true}) {}

StreamingAnalyzer::~StreamingAnalyzer() { join_all(); }

void StreamingAnalyzer::join_all() {
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void StreamingAnalyzer::release_locked(const TomoCnf& cnf, const CnfVerdict& verdict,
                                       std::uint64_t seq) {
  if (options_.on_verdict) options_.on_verdict(seq, cnf, verdict);
}

void StreamingAnalyzer::deliver(EmittedCnf&& item, CnfVerdict&& verdict) {
  std::lock_guard<std::mutex> lock(release_mutex_);
  if (!options_.on_verdict || !options_.ordered) {
    // No reorder buffer needed: release (completion order) and retain.
    release_locked(item.cnf, verdict, item.seq);
    if (options_.retain_results) {
      released_.emplace_back(std::move(item.cnf), std::move(verdict));
    }
    return;
  }
  // Ordered any-time release: buffer until this verdict's emission
  // predecessors have all been released, then release the contiguous
  // prefix.  The buffer holds at most the in-flight window (queue
  // capacity + workers), never the run.
  pending_.emplace(item.seq, std::make_pair(std::move(item.cnf), std::move(verdict)));
  while (!pending_.empty() && pending_.begin()->first == next_seq_) {
    auto node = pending_.extract(pending_.begin());
    release_locked(node.mapped().first, node.mapped().second, node.key());
    if (options_.retain_results) released_.push_back(std::move(node.mapped()));
    ++next_seq_;
  }
}

StreamingAnalyzer::Result StreamingAnalyzer::finish() {
  join_all();
  Result result;
  for (const auto& worker : workers_) {
    if (worker->error) std::rethrow_exception(worker->error);
  }
  for (auto& worker : workers_) {
    accumulate(&result.stats, worker->arena.session_stats());
  }
  // The producers emit a gapless sequence, so after a clean join the
  // reorder buffer must have drained through release.
  if (!pending_.empty()) {
    throw std::logic_error(
        "StreamingAnalyzer::finish: emission sequence has gaps (producer "
        "skipped or dropped a seq)");
  }
  std::vector<std::pair<TomoCnf, CnfVerdict>> pairs = std::move(released_);
  released_.clear();
  // Keys are unique per run (one CNF per (URL, anomaly, window)), so
  // this order is total and matches build_cnfs' key-sorted output.
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first.key < b.first.key; });
  result.cnfs.reserve(pairs.size());
  result.verdicts.reserve(pairs.size());
  for (auto& [cnf, verdict] : pairs) {
    result.cnfs.push_back(std::move(cnf));
    result.verdicts.push_back(std::move(verdict));
  }
  return result;
}

void CensorSupport::add(const CnfVerdict& verdict) {
  if (verdict.solution_class != 1) return;
  for (const topo::AsId as : verdict.censors) {
    support_[as].emplace(verdict.key.url_id, verdict.key.anomaly);
  }
}

std::vector<topo::AsId> CensorSupport::identified(std::int32_t min_support) const {
  std::vector<topo::AsId> out;
  for (const auto& [as, evidence] : support_) {
    if (static_cast<std::int32_t>(evidence.size()) >= min_support) out.push_back(as);
  }
  return out;
}

std::map<topo::AsId, std::set<censor::Anomaly>> CensorSupport::anomalies(
    const std::set<topo::AsId>& within) const {
  std::map<topo::AsId, std::set<censor::Anomaly>> out;
  for (const auto& [as, evidence] : support_) {
    if (!within.count(as)) continue;
    for (const auto& [url, anomaly] : evidence) out[as].insert(anomaly);
  }
  return out;
}

void CensorSupport::save(util::ByteWriter& w) const {
  util::save_map(
      w, support_, [](util::ByteWriter& w, topo::AsId as) { w.i32(as); },
      [](util::ByteWriter& w, const std::set<std::pair<std::int32_t, censor::Anomaly>>& ev) {
        util::save_set(w, ev,
                       [](util::ByteWriter& w, const std::pair<std::int32_t, censor::Anomaly>& e) {
                         w.i32(e.first);
                         w.u8(static_cast<std::uint8_t>(e.second));
                       });
      });
}

void CensorSupport::load(util::ByteReader& r) {
  util::load_map(
      r, support_, [](util::ByteReader& r) { return topo::AsId{r.i32()}; },
      [](util::ByteReader& r) {
        std::set<std::pair<std::int32_t, censor::Anomaly>> ev;
        util::load_set(r, ev, [](util::ByteReader& r) {
          const std::int32_t url = r.i32();
          const auto anomaly = static_cast<censor::Anomaly>(r.u8());
          return std::make_pair(url, anomaly);
        });
        return ev;
      });
}

std::vector<topo::AsId> identified_censors(const std::vector<CnfVerdict>& verdicts,
                                           std::int32_t min_support) {
  CensorSupport support;
  for (const CnfVerdict& v : verdicts) support.add(v);
  return support.identified(min_support);
}

CensorScore score_censors(const std::vector<topo::AsId>& identified,
                          const std::vector<topo::AsId>& ground_truth) {
  const std::set<topo::AsId> truth(ground_truth.begin(), ground_truth.end());
  const std::set<topo::AsId> found(identified.begin(), identified.end());
  CensorScore score;
  for (const topo::AsId as : found) {
    if (truth.count(as)) {
      ++score.true_positives;
    } else {
      ++score.false_positives;
      score.false_positive_ases.push_back(as);
    }
  }
  for (const topo::AsId as : truth) {
    if (!found.count(as)) {
      ++score.false_negatives;
      score.false_negative_ases.push_back(as);
    }
  }
  return score;
}

}  // namespace ct::tomo
