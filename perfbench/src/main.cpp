// churntomo benchmark program: runs one named workload for a fixed time
// budget, verifies its outputs, and prints every metric by name with
// its unit.  The last line of standard output is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload {year_batch|sat_replay} --seed N --seconds S
//             --trace {0|1} [--work-dir DIR] [--expected FILE]
//             [--ledger FILE] [--source-digest HEX] [--git-sha SHA]
//             [--cleared NAMES]
//
// --trace 0 times the workload untraced and reports the end-to-end
// metrics.  --trace 1 is the separate traced run: it walks the
// workload's path with a span around every call into a layer's public
// functions and reports the per-layer metrics (self time per span name,
// counters at the same boundaries) plus the tracing overhead.
// perfbench/README.md lists the workloads and metrics and says why each
// exists.  Start it through perfbench/run.py, which builds it and clears
// the execution knobs from its environment.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/checkpoint.h"
#include "analysis/experiment.h"
#include "analysis/live_report.h"
#include "analysis/monitor.h"
#include "analysis/platform_sinks.h"
#include "analysis/scenario.h"
#include "bench_core.h"
#include "censor/regime.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"
#include "util/rng.h"

extern char** environ;

namespace {

using namespace ct;
using perfbench::CheckTally;
using perfbench::Ledger;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- run configuration ------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 20170623;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string expected_path;
  std::string ledger_path;
  std::string source_digest = "unknown";
  std::string git_sha = "unknown";
  std::string cleared = "none";
};

/// CPUs this process may run on (the affinity mask, not the machine).
unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Platform shards and SAT workers: min(4, nproc), one process.
unsigned worker_threads() { return std::min(4u, nproc()); }

/// sat_replay pools the CNFs of several adaptive-regime worlds, one
/// week each, so its SAT work comes from many independent topologies
/// and does not hinge on one world's draw (a single world's replay time
/// varies by tens of percent from seed to seed).
constexpr int kReplayWorlds = 16;
constexpr util::Day kReplayDays = util::kDaysPerWeek;
/// The monitor's ingest segment, as in monitor_daemon.
constexpr util::Day kSegmentDays = 28;
/// The traced run walks the monitor loop over at most this many days of
/// the first world (three segments), so a traced year stays well inside
/// the run's time limit.
constexpr util::Day kTracedMonitorDays = 3 * kSegmentDays;
/// Scenario constructions per year_batch run that setup_s takes its
/// median over (sat_replay takes it over its worlds).
constexpr int kYearSetupSamples = 1001;

bool is_replay(const Args& args) { return args.workload == "sat_replay"; }
int world_count(const Args& args) { return is_replay(args) ? kReplayWorlds : 1; }

analysis::ScenarioConfig scenario_config(const Args& args, int world) {
  analysis::ScenarioConfig config = analysis::default_scenario();
  config.seed = args.seed;
  if (is_replay(args)) {
    config.seed = util::mix64(args.seed, static_cast<std::uint64_t>(world));
    config.regime.regime = censor::ScenarioRegime::kAdaptive;
    config.platform.num_days = kReplayDays;
  }
  return config;
}

/// The scope of a workload's data products in the known answers.
std::string family(const Args& args) { return is_replay(args) ? "replay" : "year"; }

analysis::ExperimentOptions experiment_options() {
  analysis::ExperimentOptions options;
  options.num_platform_shards = worker_threads();
  options.num_threads = worker_threads();
  return options;
}

/// The two analysis passes exactly as run_experiment configures them.
tomo::AnalysisOptions main_pass_options(const analysis::ExperimentOptions& e) {
  tomo::AnalysisOptions a = e.analysis;
  a.resolve_counts = false;
  a.num_threads = e.num_threads;
  return a;
}
tomo::AnalysisOptions fig4_pass_options(const analysis::ExperimentOptions& e) {
  tomo::AnalysisOptions a = e.analysis;
  a.resolve_counts = true;
  a.num_threads = e.num_threads;
  return a;
}

std::unique_ptr<analysis::Scenario> build_scenario(const Args& args, int world,
                                                   std::vector<double>& setup_samples) {
  const auto t0 = Clock::now();
  auto scenario = std::make_unique<analysis::Scenario>(scenario_config(args, world));
  setup_samples.push_back(seconds_since(t0));
  return scenario;
}

// --- output checks ----------------------------------------------------

/// Known answers (committed) and the run ledger (per build tree) in
/// one place.
struct Verifier {
  CheckTally tally;
  std::map<std::string, std::string> expected;
  Ledger ledger;

  /// A data product, which depends only on the workload's scenario and
  /// seed: key "<scope>.<seed>.<name>", held to the known answers and
  /// the ledger.
  void value(const Args& args, const std::string& scope, const std::string& name,
             const std::string& v) {
    const std::string key = scope + "." + std::to_string(args.seed) + "." + name;
    if (const auto it = expected.find(key); it != expected.end()) {
      tally.expect_equal("known answer " + key, v, it->second);
    }
    ledger.check(tally, key, v);
  }
  void value(const Args& args, const std::string& scope, const std::string& name,
             std::uint64_t v) {
    value(args, scope, name, std::to_string(v));
  }
  /// A solve count, which a SAT-layer change may move: held to the
  /// ledger under the source digest only, key
  /// "<workload>.<digest>.<seed>.<name>".
  void solve_count(const Args& args, const std::string& name, std::uint64_t v) {
    ledger.check(tally,
                 args.workload + "." + args.source_digest + "." + std::to_string(args.seed) +
                     "." + name,
                 std::to_string(v));
  }
};

std::string report_hash(const analysis::ExperimentResult& result) {
  return perfbench::hex64(perfbench::fnv1a(analysis::serialize_report(result)));
}

std::int64_t fig4_cnfs(const analysis::ExperimentResult& result) {
  std::int64_t n = 0;
  for (const auto& [g, counts] : result.fig4.solution_counts) n += counts.total();
  return n;
}

std::string verdict_hash(const std::vector<tomo::CnfVerdict>& verdicts) {
  perfbench::Fnv1a h;
  for (const tomo::CnfVerdict& v : verdicts) {
    h.integer(v.key.url_id);
    h.integer(static_cast<int>(v.key.anomaly));
    h.integer(static_cast<int>(v.key.granularity));
    h.integer(v.key.window);
    h.integer(v.num_vars);
    h.integer(v.solution_class);
    h.integer(v.capped_count);
    for (const auto* ases : {&v.censors, &v.potential_censors, &v.definite_noncensors}) {
      h.integer(ases->size());
      for (const topo::AsId as : *ases) h.integer(as);
    }
    h.bytes(perfbench::json_number(v.reduction_fraction));
  }
  return perfbench::hex64(h.value());
}

/// Data products of every world of a run, folded in world order.  For
/// one world `report_hash` is monitor_daemon's report-hash; over
/// several it chains the per-world hashes.
struct Products {
  std::string report_hash;
  std::uint64_t measurements = 0;
  std::uint64_t clauses = 0;
  std::uint64_t cnfs_main = 0;
  std::uint64_t cnfs_fig4 = 0;

  void add(const analysis::ExperimentResult& r) {
    const std::string h = ::report_hash(r);
    report_hash =
        report_hash.empty() ? h : perfbench::hex64(perfbench::fnv1a(report_hash + "," + h));
    measurements += static_cast<std::uint64_t>(r.table1.measurements);
    clauses += static_cast<std::uint64_t>(r.table1.clause_stats.clauses);
    cnfs_main += static_cast<std::uint64_t>(r.total_cnfs);
    cnfs_fig4 += static_cast<std::uint64_t>(fig4_cnfs(r));
  }
};

/// Checked against the known answers and the ledger.
void check_products(Verifier& verify, const Args& args, const Products& p) {
  const std::string f = family(args);
  verify.value(args, f, "report_hash", p.report_hash);
  verify.value(args, f, "measurements", p.measurements);
  verify.value(args, f, "clauses", p.clauses);
  verify.value(args, f, "cnfs_main", p.cnfs_main);
  verify.value(args, f, "cnfs_fig4", p.cnfs_fig4);
}

/// A result's own consistency: every measurement reached the clause
/// builder, and Figure 1 classifies every main-pass CNF.
void check_result(CheckTally& tally, const analysis::ExperimentResult& r) {
  tally.expect_equal("measurements reaching the clause builder",
                     r.table1.clause_stats.measurements, r.table1.measurements);
  tally.expect_equal("main-pass CNFs classified in Figure 1", r.fig1.overall.total(),
                     r.total_cnfs);
}

/// The engine's own accounting: every analyzed CNF was loaded exactly
/// once (fresh or as a delta) and served by exactly one backend.
void check_engine(CheckTally& tally, const std::string& pass, const tomo::EngineStats& stats,
                  std::uint64_t cnfs) {
  std::uint64_t served = 0;
  for (const sat::BackendCounters& b : stats.backends) served += b.served;
  tally.expect_equal(pass + ": loads equal CNFs analyzed", stats.cnf_loads + stats.delta_loads,
                     cnfs);
  tally.expect_equal(pass + ": CNFs served equal CNFs analyzed", served, cnfs);
}

// --- the resident monitor loop (traced runs) ---------------------------

struct MonitorRun {
  analysis::ExperimentResult result;
  analysis::MonitorStats stats;
  std::vector<double> segment_s;
  std::int64_t checkpoint_bytes_max = 0;
  std::int64_t open_main_windows_max = 0;
};

/// monitor_daemon's loop: one 28-day segment per run_until, a
/// checkpoint after each, then finalize().  Every checkpoint is opened
/// again under the monitor's fingerprint.  Each call gets a span and
/// the open-window gauge is sampled after each segment.
MonitorRun run_monitor(analysis::Scenario& scenario, const std::string& checkpoint_path,
                       CheckTally& tally, Tracer& tracer) {
  using Scope = std::optional<Tracer::Scope>;
  const auto span = [&tracer](Scope& s, const char* name) { s.emplace(tracer, name); };
  MonitorRun run;
  Scope root;
  span(root, "analysis.monitor");

  analysis::MonitorOptions options;
  options.experiment = experiment_options();
  options.segment_days = kSegmentDays;
  std::optional<analysis::MonitorEngine> monitor;
  {
    Scope s;
    span(s, "analysis.monitor.init");
    monitor.emplace(scenario, options);
  }
  while (monitor->watermark() < monitor->num_days()) {
    {
      Scope s;
      span(s, "analysis.monitor.segment");
      const auto ts = Clock::now();
      monitor->run_until(std::min(monitor->num_days(), monitor->watermark() + kSegmentDays));
      run.segment_s.push_back(seconds_since(ts));
    }
    {
      Scope s;
      span(s, "analysis.monitor.checkpoint");
      monitor->checkpoint_to(checkpoint_path);
    }
    {
      Scope s;
      span(s, "bench.verify");
      const std::string bytes = analysis::read_checkpoint_file(checkpoint_path);
      run.checkpoint_bytes_max =
          std::max(run.checkpoint_bytes_max, static_cast<std::int64_t>(bytes.size()));
      bool reopened = false;
      try {
        reopened = analysis::open_checkpoint(bytes, monitor->fingerprint()).watermark ==
                   monitor->watermark();
      } catch (const analysis::CheckpointError&) {
        reopened = false;
      }
      tally.expect(reopened, "checkpoint at watermark " + std::to_string(monitor->watermark()) +
                                 " reopens under the monitor's fingerprint");
      run.open_main_windows_max =
          std::max(run.open_main_windows_max, monitor->stats().open_main_windows);
    }
  }
  {
    Scope s;
    span(s, "analysis.monitor.finalize");
    run.result = monitor->finalize();
  }
  root.reset();
  run.stats = monitor->stats();
  check_result(tally, run.result);
  check_engine(tally, "monitor, both passes", run.stats.engine,
               static_cast<std::uint64_t>(run.result.total_cnfs + fig4_cnfs(run.result)));
  return run;
}

// --- the batch pipeline, one span per library call --------------------

struct BatchTrace {
  analysis::ExperimentResult result;
  tomo::EngineStats main_stats;
  tomo::EngineStats fig4_stats;
  double analyze_s = 0.0;  // both analyze_cnfs calls
  // Kept only when asked (sat_replay replays them untraced afterwards).
  std::vector<tomo::TomoCnf> main_cnfs;
  std::vector<tomo::TomoCnf> fig4_cnfs;
  std::vector<tomo::CnfVerdict> main_verdicts;
  std::vector<tomo::CnfVerdict> fig4_verdicts;
};

/// run_experiment's batch branch, split into its library calls:
/// run_platform -> build_cnfs -> analyze_cnfs -> strip_path_churn ->
/// build_cnfs -> analyze_cnfs -> churn_tracker.compute() ->
/// finalize_experiment_result.  Must reproduce the untraced report.
BatchTrace traced_batch(Tracer& tracer, analysis::Scenario& scenario, bool keep_cnfs) {
  const analysis::ExperimentOptions options = experiment_options();
  BatchTrace out;
  Tracer::Scope root(tracer, "analysis.batch");
  analysis::ExperimentFolds folds(options);

  std::unique_ptr<analysis::PlatformSinks> sinks;
  {
    Tracer::Scope s(tracer, "iclab.run_platform");
    sinks = analysis::run_platform(scenario, options.num_platform_shards);
  }
  const tomo::PathPool& pool = sinks->clause_builder.pool();
  const std::vector<tomo::PathClause>& clauses = sinks->clause_builder.clauses();

  std::vector<tomo::TomoCnf> cnfs;
  {
    Tracer::Scope s(tracer, "tomo.build_cnfs_main");
    cnfs = tomo::build_cnfs(pool, clauses);
  }
  std::vector<tomo::CnfVerdict> verdicts;
  {
    Tracer::Scope s(tracer, "sat.analyze_main");
    const auto ta = Clock::now();
    verdicts = tomo::analyze_cnfs(cnfs, main_pass_options(options), &out.main_stats);
    out.analyze_s += seconds_since(ta);
  }
  {
    Tracer::Scope s(tracer, "analysis.fold");
    for (std::size_t i = 0; i < cnfs.size(); ++i) folds.add_main(cnfs[i], verdicts[i]);
  }

  std::vector<tomo::PathClause> stripped;
  {
    Tracer::Scope s(tracer, "tomo.strip_path_churn");
    stripped = tomo::strip_path_churn(pool, clauses);
  }
  std::vector<tomo::TomoCnf> cnfs4;
  {
    Tracer::Scope s(tracer, "tomo.build_cnfs_fig4");
    tomo::CnfBuildOptions build;
    build.granularities = options.fig1_granularities;
    cnfs4 = tomo::build_cnfs(pool, stripped, build);
  }
  std::vector<tomo::CnfVerdict> verdicts4;
  {
    Tracer::Scope s(tracer, "sat.analyze_fig4");
    const auto ta = Clock::now();
    verdicts4 = tomo::analyze_cnfs(cnfs4, fig4_pass_options(options), &out.fig4_stats);
    out.analyze_s += seconds_since(ta);
  }
  {
    Tracer::Scope s(tracer, "analysis.fold");
    for (const tomo::CnfVerdict& v : verdicts4) folds.fig4.add(v);
  }

  analysis::ChurnStats fig3;
  {
    Tracer::Scope s(tracer, "analysis.churn_compute");
    fig3 = sinks->churn_tracker.compute();
  }
  {
    Tracer::Scope s(tracer, "analysis.finalize");
    out.result = analysis::finalize_experiment_result(
        scenario, options, folds, sinks->summary, sinks->clause_builder.stats(),
        sinks->truth_tracker, std::move(fig3));
  }
  if (keep_cnfs) {
    out.main_cnfs = std::move(cnfs);
    out.fig4_cnfs = std::move(cnfs4);
    out.main_verdicts = std::move(verdicts);
    out.fig4_verdicts = std::move(verdicts4);
  }
  return out;
}

// --- sat_replay inputs ------------------------------------------------

struct ReplayInputs {
  std::vector<tomo::TomoCnf> main;
  std::vector<tomo::TomoCnf> fig4;
  std::uint64_t measurements = 0;
  std::vector<double> world_setup_s;  // one set-up time per world
};

template <typename T>
void append(std::vector<T>& to, std::vector<T>&& from) {
  to.insert(to.end(), std::make_move_iterator(from.begin()), std::make_move_iterator(from.end()));
}

/// sat_replay's set-up: per world, the scenario, the platform run, and
/// both passes' CNFs, built as run_experiment builds them and pooled in
/// world order.  Each world's set-up is timed on its own.
ReplayInputs build_replay_inputs(const Args& args) {
  const analysis::ExperimentOptions options = experiment_options();
  tomo::CnfBuildOptions fig4_build;
  fig4_build.granularities = options.fig1_granularities;
  ReplayInputs in;
  std::vector<double> unused;
  for (int w = 0; w < world_count(args); ++w) {
    const auto t0 = Clock::now();
    {
      auto scenario = build_scenario(args, w, unused);
      auto sinks = analysis::run_platform(*scenario, options.num_platform_shards);
      const tomo::PathPool& pool = sinks->clause_builder.pool();
      const std::vector<tomo::PathClause>& clauses = sinks->clause_builder.clauses();
      in.measurements += static_cast<std::uint64_t>(sinks->summary.measurements());
      append(in.main, tomo::build_cnfs(pool, clauses));
      append(in.fig4, tomo::build_cnfs(pool, tomo::strip_path_churn(pool, clauses), fig4_build));
    }
    in.world_setup_s.push_back(seconds_since(t0));
  }
  return in;
}

struct ReplayPass {
  std::vector<tomo::CnfVerdict> main;
  std::vector<tomo::CnfVerdict> fig4;
  tomo::EngineStats main_stats;
  tomo::EngineStats fig4_stats;
  double wall_s = 0.0;
};

ReplayPass replay_pass(const ReplayInputs& in) {
  const analysis::ExperimentOptions options = experiment_options();
  ReplayPass pass;
  const auto t0 = Clock::now();
  pass.main = tomo::analyze_cnfs(in.main, main_pass_options(options), &pass.main_stats);
  pass.fig4 = tomo::analyze_cnfs(in.fig4, fig4_pass_options(options), &pass.fig4_stats);
  pass.wall_s = seconds_since(t0);
  return pass;
}

void check_replay_pass(Verifier& verify, const Args& args, const ReplayInputs& in,
                       const ReplayPass& pass) {
  check_engine(verify.tally, "main pass", pass.main_stats, in.main.size());
  check_engine(verify.tally, "Figure-4 pass", pass.fig4_stats, in.fig4.size());
  verify.value(args, "replay", "verdicts_main", verdict_hash(pass.main));
  verify.value(args, "replay", "verdicts_fig4", verdict_hash(pass.fig4));
}

// --- timed (untraced) workloads ---------------------------------------

struct Timed {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  // What one iteration processes, for the printed throughput.
  std::uint64_t work = 0;
  std::string work_unit;
};

/// Stop rule for the timed loop: at least one iteration, then another
/// only while it is expected to finish inside the time budget.
bool keep_going(Clock::time_point start, const std::vector<double>& samples, double budget) {
  return samples.empty() || seconds_since(start) + perfbench::median(samples) <= budget;
}

/// Sets up kYearSetupSamples times, then runs whole years through
/// run_experiment on fresh scenarios until the budget is spent.
Timed timed_year_batch(const Args& args, Verifier& verify) {
  Timed t;
  std::unique_ptr<analysis::Scenario> scenario;
  for (int i = 0; i < kYearSetupSamples; ++i) scenario = build_scenario(args, 0, t.setup_s);
  const auto start = Clock::now();
  while (keep_going(start, t.wall_s, args.seconds)) {
    if (!scenario) scenario = build_scenario(args, 0, t.setup_s);
    const auto t0 = Clock::now();
    const analysis::ExperimentResult result =
        analysis::run_experiment(*scenario, experiment_options());
    t.wall_s.push_back(seconds_since(t0));
    scenario.reset();
    Products products;
    products.add(result);
    check_products(verify, args, products);
    check_result(verify.tally, result);
    check_engine(verify.tally, "main pass", result.engine_stats,
                 static_cast<std::uint64_t>(result.total_cnfs));
    verify.solve_count(args, "solve_calls_main", result.engine_stats.solve_calls);
    t.work = products.measurements;
    t.work_unit = "measurements";
  }
  return t;
}

/// Builds the pooled inputs once (setup_s is the median world set-up),
/// then replays both passes until the budget is spent.
Timed timed_sat_replay(const Args& args, Verifier& verify) {
  Timed t;
  const ReplayInputs in = build_replay_inputs(args);
  t.setup_s = in.world_setup_s;
  t.work = in.main.size() + in.fig4.size();
  t.work_unit = "cnfs";
  verify.value(args, "replay", "measurements", in.measurements);
  verify.value(args, "replay", "cnfs_main", in.main.size());
  verify.value(args, "replay", "cnfs_fig4", in.fig4.size());

  std::optional<ReplayPass> first;
  const auto start = Clock::now();
  while (keep_going(start, t.wall_s, args.seconds)) {
    ReplayPass pass = replay_pass(in);
    t.wall_s.push_back(pass.wall_s);
    if (!first) {
      check_replay_pass(verify, args, in, pass);
      verify.solve_count(args, "solve_calls_main", pass.main_stats.solve_calls);
      verify.solve_count(args, "solve_calls_fig4", pass.fig4_stats.solve_calls);
      first = std::move(pass);
    } else {
      verify.tally.expect(pass.main == first->main, "main-pass verdicts equal the first pass");
      verify.tally.expect(pass.fig4 == first->fig4, "Figure-4 verdicts equal the first pass");
    }
  }
  return t;
}

// --- metrics ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::vector<Metric> end_to_end_metrics(const Timed& t) {
  return {
      {"setup_s", perfbench::median(t.setup_s), "s"},
      {"wall_s", perfbench::median(t.wall_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

void add_sat_metrics(std::vector<Metric>& m, const tomo::EngineStats& a,
                     const tomo::EngineStats& b) {
  const auto both = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(x + y); };
  const double loads = both(a.cnf_loads, b.cnf_loads);
  const double deltas = both(a.delta_loads, b.delta_loads);
  m.push_back({"sat.solve_calls", both(a.solve_calls, b.solve_calls), "count"});
  m.push_back({"sat.cnf_loads", loads, "count"});
  m.push_back({"sat.delta_loads", deltas, "count"});
  m.push_back({"sat.delta_ratio", loads + deltas > 0 ? deltas / (loads + deltas) : 0.0,
               "ratio"});
  static constexpr const char* kBackends[] = {"cdcl", "count", "unitprop", "ipasir",
                                              "portfolio"};
  static_assert(std::size(kBackends) == sat::kNumBackendKinds);
  double escalated = 0.0;
  for (std::size_t k = 0; k < sat::kNumBackendKinds; ++k) {
    m.push_back({std::string("sat.served.") + kBackends[k],
                 both(a.backends[k].served, b.backends[k].served), "count"});
    escalated += both(a.backends[k].escalated, b.backends[k].escalated);
  }
  m.push_back({"sat.escalated", escalated, "count"});
  m.push_back({"sat.portfolio_races", both(a.portfolio.races, b.portfolio.races), "count"});
}

/// Sums, per pass, the counters add_sat_metrics reports over worlds.
void add_stats(tomo::EngineStats& to, const tomo::EngineStats& s) {
  to.cnf_loads += s.cnf_loads;
  to.solve_calls += s.solve_calls;
  to.delta_loads += s.delta_loads;
  for (std::size_t k = 0; k < sat::kNumBackendKinds; ++k) {
    to.backends[k].served += s.backends[k].served;
    to.backends[k].escalated += s.backends[k].escalated;
  }
  to.portfolio.races += s.portfolio.races;
}

// --- traced run -------------------------------------------------------

struct TracedResult {
  std::vector<Metric> metrics;
  std::vector<perfbench::Span> spans;
};

/// The traced run walks every world through run_experiment's batch
/// branch (sat_replay's set-up and replay are exactly that branch's
/// calls) and the first world's first kTracedMonitorDays through the
/// monitor loop, with a span around each layer call, so every per-layer
/// metric is measured on every workload.  The monitor must reproduce
/// run_experiment's report of the same days.  The overhead is the time
/// the tracer itself spends recording spans: the only work a traced run
/// adds.
TracedResult traced_run(const Args& args, Verifier& verify) {
  Tracer tracer;
  std::vector<double> unused;
  const std::string checkpoint = args.work_dir + "/traced.ckpt";
  const auto fresh_scenario = [&](int world) {
    Tracer::Scope s(tracer, "scenario.build");
    return build_scenario(args, world, unused);
  };

  Products batch;
  tomo::EngineStats main_stats;
  tomo::EngineStats fig4_stats;
  double analyze_s = 0.0;
  ReplayInputs replay;
  ReplayPass traced_pass;
  for (int w = 0; w < world_count(args); ++w) {
    auto scenario = fresh_scenario(w);
    BatchTrace b = traced_batch(tracer, *scenario, is_replay(args));
    check_result(verify.tally, b.result);
    check_engine(verify.tally, "main pass", b.main_stats,
                 static_cast<std::uint64_t>(b.result.total_cnfs));
    check_engine(verify.tally, "Figure-4 pass", b.fig4_stats,
                 static_cast<std::uint64_t>(fig4_cnfs(b.result)));
    batch.add(b.result);
    add_stats(main_stats, b.main_stats);
    add_stats(fig4_stats, b.fig4_stats);
    analyze_s += b.analyze_s;
    append(replay.main, std::move(b.main_cnfs));
    append(replay.fig4, std::move(b.fig4_cnfs));
    append(traced_pass.main, std::move(b.main_verdicts));
    append(traced_pass.fig4, std::move(b.fig4_verdicts));
  }
  check_products(verify, args, batch);
  if (!is_replay(args)) {
    verify.solve_count(args, "solve_calls_main", main_stats.solve_calls);
    verify.solve_count(args, "solve_calls_fig4", fig4_stats.solve_calls);
  } else {
    // The traced walk analyzed world by world; the untraced pooled pass
    // must return the same verdicts.  Its scheduling differs, so the
    // ledger holds the pooled pass's solve counts.
    traced_pass.main_stats = main_stats;
    traced_pass.fig4_stats = fig4_stats;
    check_replay_pass(verify, args, replay, traced_pass);
    const ReplayPass pass = replay_pass(replay);
    verify.solve_count(args, "solve_calls_main", pass.main_stats.solve_calls);
    verify.solve_count(args, "solve_calls_fig4", pass.fig4_stats.solve_calls);
    verify.tally.expect(pass.main == traced_pass.main,
                        "untraced main-pass verdicts equal the traced pass");
    verify.tally.expect(pass.fig4 == traced_pass.fig4,
                        "untraced Figure-4 verdicts equal the traced pass");
  }
  replay = ReplayInputs{};
  traced_pass = ReplayPass{};

  analysis::ScenarioConfig monitor_config = scenario_config(args, 0);
  monitor_config.platform.num_days =
      std::min<util::Day>(monitor_config.platform.num_days, kTracedMonitorDays);
  std::string batch_hash;
  {
    analysis::Scenario scenario(monitor_config);
    batch_hash = report_hash(analysis::run_experiment(scenario, experiment_options()));
  }
  MonitorRun mon;
  {
    std::unique_ptr<analysis::Scenario> scenario;
    {
      Tracer::Scope s(tracer, "scenario.build");
      scenario = std::make_unique<analysis::Scenario>(monitor_config);
    }
    mon = run_monitor(*scenario, checkpoint, verify.tally, tracer);
  }
  std::filesystem::remove(checkpoint);
  verify.tally.expect_equal("monitor report equals the batch report of the same days",
                            report_hash(mon.result), batch_hash);
  verify.solve_count(args, "monitor_solve_calls", mon.stats.engine.solve_calls);

  TracedResult out;
  out.spans = tracer.spans();
  const std::map<std::string, double> self = perfbench::self_time_by_name(out.spans);
  const auto self_of = [&self](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric>& m = out.metrics;
  m.push_back({"scenario.build_s", self_of("scenario.build"), "s"});
  m.push_back({"iclab.run_platform_s", self_of("iclab.run_platform"), "s"});
  m.push_back({"iclab.measurements", count(batch.measurements), "count"});
  m.push_back({"tomo.clauses_built", count(batch.clauses), "count"});
  m.push_back({"tomo.build_cnfs_main_s", self_of("tomo.build_cnfs_main"), "s"});
  m.push_back({"tomo.strip_path_churn_s", self_of("tomo.strip_path_churn"), "s"});
  m.push_back({"tomo.build_cnfs_fig4_s", self_of("tomo.build_cnfs_fig4"), "s"});
  m.push_back({"tomo.cnfs_main", count(batch.cnfs_main), "count"});
  m.push_back({"tomo.cnfs_fig4", count(batch.cnfs_fig4), "count"});
  m.push_back({"sat.analyze_main_s", self_of("sat.analyze_main"), "s"});
  m.push_back({"sat.analyze_fig4_s", self_of("sat.analyze_fig4"), "s"});
  m.push_back({"sat.cnfs_per_s", count(batch.cnfs_main + batch.cnfs_fig4) / analyze_s, "1/s"});
  add_sat_metrics(m, main_stats, fig4_stats);
  m.push_back({"analysis.fold_s", self_of("analysis.fold"), "s"});
  m.push_back({"analysis.churn_compute_s", self_of("analysis.churn_compute"), "s"});
  m.push_back({"analysis.finalize_s", self_of("analysis.finalize"), "s"});
  m.push_back({"analysis.monitor.init_s", self_of("analysis.monitor.init"), "s"});
  m.push_back({"analysis.monitor.segment_s", self_of("analysis.monitor.segment"), "s"});
  m.push_back({"analysis.monitor.segment_p50_s", perfbench::median(mon.segment_s), "s"});
  m.push_back({"analysis.monitor.checkpoint_s", self_of("analysis.monitor.checkpoint"), "s"});
  m.push_back({"analysis.monitor.finalize_s", self_of("analysis.monitor.finalize"), "s"});
  m.push_back({"analysis.monitor.checkpoint_bytes", static_cast<double>(mon.checkpoint_bytes_max),
               "bytes"});
  m.push_back({"analysis.monitor.retained_clauses_peak",
               static_cast<double>(mon.stats.retained_clauses_peak), "count"});
  m.push_back({"analysis.monitor.open_main_windows_max",
               static_cast<double>(mon.open_main_windows_max), "count"});
  m.push_back({"analysis.monitor.snapshots_published",
               count(mon.stats.engine.snapshots_published), "count"});
  // Time inside the traced roots that no layer span covers.
  m.push_back({"trace.uncovered_s", self_of("analysis.batch") + self_of("analysis.monitor"),
               "s"});
  m.push_back({"trace.overhead_s", tracer.cost_s(), "s"});
  return out;
}

// --- reporting --------------------------------------------------------

std::string context_json(const Args& args,
                         const std::vector<std::pair<std::string, std::string>>& ct_env) {
#if defined(__OPTIMIZE__)
  const char* optimize = "optimized";
#else
  const char* optimize = "none";
#endif
#if defined(NDEBUG)
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const analysis::ScenarioConfig config = scenario_config(args, 0);
  std::string env = "{";
  for (const auto& [k, v] : ct_env) {
    if (env.size() > 1) env += ", ";
    env += perfbench::json_string(k) + ": " + perfbench::json_string(v);
  }
  env += "}";
  std::string out = "{";
  out += "\"workload\": " + perfbench::json_string(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + perfbench::json_number(args.seconds);
  out += ", \"trace\": " + std::string(args.trace ? "true" : "false");
  out += ", \"build_type\": " + perfbench::json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"cxx_flags\": " + perfbench::json_string(PERFBENCH_CXX_FLAGS);
  out += ", \"optimize\": " + perfbench::json_string(optimize);
  out += ", \"ndebug\": " + std::string(ndebug ? "true" : "false");
  out += ", \"compiler\": " + perfbench::json_string(PERFBENCH_COMPILER);
  out += ", \"compiler_version\": " + perfbench::json_string(__VERSION__);
  out += ", \"source_digest\": " + perfbench::json_string(args.source_digest);
  out += ", \"git_sha\": " + perfbench::json_string(args.git_sha);
  out += ", \"nproc\": " + std::to_string(nproc());
  out += ", \"threads\": " + std::to_string(worker_threads());
  out += ", \"regime\": " + perfbench::json_string(censor::to_string(config.regime.regime));
  out += ", \"worlds\": " + std::to_string(world_count(args));
  out += ", \"days_per_world\": " + std::to_string(config.platform.num_days);
  out += ", \"ct_env\": " + env;
  out += ", \"ct_env_cleared\": " + perfbench::json_string(args.cleared);
  return out + "}";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += perfbench::json_string(m.name) + ": {\"value\": " + perfbench::json_number(m.value) +
           ", \"unit\": " + perfbench::json_string(m.unit) + "}";
  }
  return out + "}";
}

std::string numbers_json(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) {
    if (out.size() > 1) out += ", ";
    out += perfbench::json_number(v);
  }
  return out + "]";
}

std::string spans_json(const std::vector<perfbench::Span>& spans) {
  std::string out = "[";
  for (const perfbench::Span& s : spans) {
    if (out.size() > 1) out += ",\n ";
    out += "{\"name\": " + perfbench::json_string(s.name) +
           ", \"start_s\": " + perfbench::json_number(s.start_s) +
           ", \"end_s\": " + perfbench::json_number(s.end_s) +
           ", \"parent\": " + std::to_string(s.parent) + "}";
  }
  return out + "]";
}

int usage() {
  std::cerr << "usage: perfbench --workload {year_batch|sat_replay} --seed N --seconds S\n"
               "                 --trace {0|1} [--work-dir DIR] [--expected FILE]\n"
               "                 [--ledger FILE] [--source-digest HEX] [--git-sha SHA]\n"
               "                 [--cleared NAMES]\n";
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace" && (value == "0" || value == "1")) {
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--expected") {
        args.expected_path = value;
      } else if (flag == "--ledger") {
        args.ledger_path = value;
      } else if (flag == "--source-digest") {
        args.source_digest = value;
      } else if (flag == "--git-sha") {
        args.git_sha = value;
      } else if (flag == "--cleared") {
        args.cleared = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  const bool known = args.workload == "year_batch" || args.workload == "sat_replay";
  if (argc % 2 == 0 || !known || !(args.seconds > 0.0)) return std::nullopt;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) return usage();
  const Args& args = *parsed;

  std::vector<std::string> environment;
  for (char** e = environ; *e != nullptr; ++e) environment.emplace_back(*e);
  const auto ct_env = perfbench::ct_variables(environment);

  try {
    std::filesystem::create_directories(args.work_dir);
    Verifier verify;
    if (!args.expected_path.empty()) {
      verify.expected = perfbench::read_key_values(args.expected_path);
    }
    verify.ledger = Ledger(args.ledger_path);

    std::vector<Metric> metrics;
    std::vector<perfbench::Span> spans;
    std::vector<std::string> notes;
    std::string samples = "{}";
    if (args.trace) {
      TracedResult traced = traced_run(args, verify);
      metrics = std::move(traced.metrics);
      spans = std::move(traced.spans);
    } else {
      const Timed t = is_replay(args) ? timed_sat_replay(args, verify)
                                      : timed_year_batch(args, verify);
      metrics = end_to_end_metrics(t);
      samples = "{\"setup_s\": " + numbers_json(t.setup_s) +
                ", \"wall_s\": " + numbers_json(t.wall_s) + "}";
      notes.push_back("setup " + perfbench::describe_timing(t.setup_s));
      notes.push_back("wall " + perfbench::describe_timing(t.wall_s));
      notes.push_back(t.work_unit + "_per_s " +
                      std::to_string(static_cast<double>(t.work) / perfbench::median(t.wall_s)) +
                      " (" + std::to_string(t.work) + " " + t.work_unit + " per iteration)");
    }
    verify.ledger.flush();
    const double fail_ratio = verify.tally.attempted() == 0
                                  ? 0.0
                                  : static_cast<double>(verify.tally.failed()) /
                                        static_cast<double>(verify.tally.attempted());
    notes.push_back("checks " + std::to_string(verify.tally.attempted()) + " attempted, " +
                    std::to_string(verify.tally.failed()) + " failed (fail_ratio " +
                    std::to_string(fail_ratio) + ")");

    const std::string context = context_json(args, ct_env);
    std::cout << "perfbench " << args.workload << " seed " << args.seed
              << (args.trace ? " (traced)" : " (untraced)") << "\n";
    for (const Metric& m : metrics) {
      std::printf("  %-42s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const std::string& n : notes) std::cout << "  " << n << "\n";
    for (const std::string& f : verify.tally.failures()) std::cout << "  FAILED " << f << "\n";
    std::cout << "context " << context << "\n";

    const std::string result_path = args.work_dir + "/" + args.workload + "-seed" +
                                    std::to_string(args.seed) + "-trace" +
                                    (args.trace ? "1" : "0") + ".json";
    {
      std::ofstream out(result_path);
      out << "{\"context\": " << context << ",\n \"metrics\": " << metrics_json(metrics)
          << ",\n \"attempted\": " << verify.tally.attempted()
          << ", \"failed\": " << verify.tally.failed() << ",\n \"samples\": " << samples
          << ",\n \"spans\": " << spans_json(spans)
          << "}\n";
    }

    std::cout << "{\"correct\": " << (verify.tally.failed() == 0 ? "true" : "false")
              << ", \"attempted\": " << verify.tally.attempted()
              << ", \"failed\": " << verify.tally.failed()
              << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
