// ICLab-style censorship measurement platform (simulator).
//
// Substitutes for the proprietary ICLab deployment the paper consumes.
// The platform owns a schedule of (vantage AS, URL) tests over a
// simulated year.  For every test it:
//   * resolves the current BGP path from the vantage to the URL's host
//     AS (per-day route tables over the churn engine's link state),
//   * asks the ground-truth censor registry whether each of the five
//     anomaly types would fire on that path, applies detector noise,
//   * renders three raw IP traceroutes (with timeouts, unmapped border
//     addresses, occasional outright errors, and rare mid-measurement
//     route flutter),
// and emits a Measurement record with exactly the fields the paper
// lists in §3.1.  Consumers implement MeasurementSink; the clause
// builder, the Table-1 summary, and the churn analysis all attach as
// sinks so the (potentially large) dataset is streamed, not stored.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bgp/churn.h"
#include "bgp/routing.h"
#include "censor/policy.h"
#include "net/traceroute.h"
#include "topo/as_graph.h"
#include "util/rng.h"
#include "util/timewin.h"

namespace ct::util {
class ByteWriter;
class ByteReader;
}  // namespace ct::util

namespace ct::iclab {

/// A test target: a URL hosted in some destination AS.
struct Url {
  std::int32_t id = 0;
  std::string name;  // e.g. "www.site042.example"
  censor::UrlCategory category = censor::UrlCategory::kNews;
  topo::AsId dest_as = topo::kInvalidAs;
};

/// One measurement record (paper §3.1: vantage AS, URL, anomaly
/// verdicts, three traceroutes, timestamp).
struct Measurement {
  topo::AsId vantage = topo::kInvalidAs;
  std::int32_t vp_node = 0;       // measurement node within the vantage AS
  std::int32_t url_id = 0;
  util::Day day = 0;
  std::int32_t epoch_in_day = 0;  // sub-day measurement slot
  /// Position in the deterministic global schedule (lexicographic in
  /// (day, epoch, destination, vantage, node, URL)).  Depends only on
  /// the schedule, never on which shard executed the measurement, so
  /// shard-local sink contents can be merged back into exact serial
  /// stream order (see tomo::hand_off_clauses).
  std::int64_t seq = 0;
  /// Detector verdict per anomaly type (index = Anomaly enum value).
  std::array<bool, censor::kNumAnomalies> detected{};
  std::array<net::Traceroute, 3> traceroutes;
  /// True when no route existed at test time (all traceroutes error).
  bool unreachable = false;
  /// Ground truth, carried for validation only — the inference pipeline
  /// must never read these.
  std::vector<topo::AsId> truth_path;
  std::array<bool, censor::kNumAnomalies> truth_censored{};
};

/// Consumer of platform output, fed measurement by measurement.
class MeasurementSink {
 public:
  virtual ~MeasurementSink() = default;
  /// `m` is valid only for the duration of the call: each platform
  /// shard reuses one Measurement (and its hop lists and path buffer)
  /// for every record it emits, so a sink that needs a record later
  /// must copy it.
  virtual void on_measurement(const Measurement& m) = 0;
  /// Called once per (day, epoch, vantage, destination AS) with the
  /// current BGP path (empty if unreachable), regardless of whether a
  /// measurement was scheduled — the churn analysis (Figure 3) consumes
  /// this.  Like `m` above, `path` is a reused buffer, valid only for
  /// the duration of the call.
  virtual void on_path(util::Day /*day*/, std::int32_t /*epoch*/, topo::AsId /*vantage*/,
                       topo::AsId /*dest*/, const std::vector<topo::AsId>& /*path*/) {}
  /// Called at the start of each simulated day.
  virtual void on_day_start(util::Day /*day*/) {}
};

/// Fans one measurement stream out to several sinks.
class SinkFanout : public MeasurementSink {
 public:
  void add(MeasurementSink* sink) { sinks_.push_back(sink); }
  void on_measurement(const Measurement& m) override {
    for (auto* s : sinks_) s->on_measurement(m);
  }
  void on_path(util::Day day, std::int32_t epoch, topo::AsId vantage, topo::AsId dest,
               const std::vector<topo::AsId>& path) override {
    for (auto* s : sinks_) s->on_path(day, epoch, vantage, dest, path);
  }
  void on_day_start(util::Day day) override {
    for (auto* s : sinks_) s->on_day_start(day);
  }

 private:
  std::vector<MeasurementSink*> sinks_;
};

/// URLs per platform and measurement nodes per vantage AS are capped
/// here: the detector-noise and ECMP flow streams pack a URL id and a
/// node index into 20-bit fields of their keys, so more ids would alias
/// two cells onto one stream.  choose_endpoints and Platform throw
/// std::invalid_argument past it.
inline constexpr std::int64_t kMaxCellKeyIds = std::int64_t{1} << 20;

struct PlatformConfig {
  /// Number of vantage *ASes*; each hosts `vp_nodes_per_as` measurement
  /// nodes.  Nodes in a multihomed AS exit through different providers
  /// (different PoPs), mirroring ICLab's ~1000 VPs in ~539 ASes — this
  /// intra-AS path diversity is a key enabler of unique SAT solutions.
  std::int32_t num_vantages = 50;
  std::int32_t vp_nodes_per_as = 2;
  std::int32_t num_urls = 120;
  std::int32_t num_dest_ases = 60;
  /// Vantage placement is biased toward these countries (ICLab
  /// deliberately measures from censorship-heavy regions).  Defaults
  /// mirror censor::CensorConfig::country_weights — localization only
  /// works where the platform has nearby vantage points.
  std::vector<std::pair<std::string, double>> vantage_country_weights =
      censor::default_censorship_country_weights();
  /// Probability each vantage slot is drawn from the weighted list.
  double vantage_weighted_prob = 0.75;
  /// Probability a given (vantage, URL) pair runs a measurement session
  /// on a given day.  A selected session tests the URL once per routing
  /// epoch of that day (ICLab "repetitively performs" measurements), so
  /// intraday path churn is visible within a single day's CNF.
  double test_prob = 0.12;
  /// Sub-day routing epochs; intraday path churn needs > 1.
  std::int32_t epochs_per_day = 3;
  /// Probability one of a measurement's three traceroutes races a route
  /// change and follows the previous day's path.
  double flutter_prob = 0.01;
  /// ECMP/multipath regime (censor::ScenarioRegime::kMultipath): when
  /// set, each flow — a (vantage node, URL) pair — is hashed across the
  /// equal-cost alternates of the epoch's routing view instead of
  /// always riding the single best path, so two URLs toward the same
  /// destination can traverse different ASes within one epoch.  This
  /// deliberately breaks the paper's one-path-per-epoch premise.  The
  /// flow hash is a pure function of (seed, vantage, node, URL), so the
  /// emitted stream stays bit-identical across shard layouts.
  bool ecmp_multipath = false;
  util::Day num_days = util::kDaysPerYear;
  net::TracerouteConfig traceroute;
  censor::DetectorNoise noise;
  bgp::ChurnConfig churn;
};

/// The measurement endpoints of a deployment: vantage ASes, destination
/// ASes, and the URL list.  Factored out of Platform so ground-truth
/// censor generation can target the same ASes (eyeball/hosting networks
/// censor their own traffic).
struct Endpoints {
  std::vector<topo::AsId> vantages;
  std::vector<topo::AsId> dest_ases;
  std::vector<Url> urls;
};

/// Deterministically selects endpoints for a deployment.
Endpoints choose_endpoints(const topo::AsGraph& graph, const PlatformConfig& config,
                           std::uint64_t seed);

/// One shard of the measurement schedule: a contiguous day range crossed
/// with a contiguous range of vantage indices (into Platform::vantages()).
/// Both ranges are half-open.  A shard covers every (destination, node,
/// URL) combination inside its rectangle, so a set of disjoint shards
/// tiling [0, num_days) x [0, num_vantages) covers the schedule exactly
/// once.
struct ShardRange {
  util::Day day_begin = 0;
  util::Day day_end = 0;
  std::int32_t vantage_begin = 0;
  std::int32_t vantage_end = 0;

  bool operator==(const ShardRange&) const = default;
};

/// Partitions the schedule into a day_chunks x vantage_chunks grid of
/// near-even ShardRanges (day-major order).  Chunk counts are clamped to
/// the dimension sizes; the result always tiles the schedule exactly.
std::vector<ShardRange> plan_shard_grid(util::Day num_days, std::int32_t num_vantages,
                                        std::int32_t day_chunks,
                                        std::int32_t vantage_chunks);

class Platform {
 public:
  /// The graph, registry, and plan must outlive the platform.  Selects
  /// endpoints via choose_endpoints(graph, config, seed).
  Platform(const topo::AsGraph& graph, const censor::CensorRegistry& registry,
           const net::AddressPlan& plan, const PlatformConfig& config, std::uint64_t seed);
  /// As above with pre-selected endpoints.
  Platform(const topo::AsGraph& graph, const censor::CensorRegistry& registry,
           const net::AddressPlan& plan, const PlatformConfig& config, std::uint64_t seed,
           Endpoints endpoints);

  /// Runs the full schedule serially on the calling thread, streaming
  /// into `sink`: the serial reference the shard-equivalence tests hold
  /// analysis::run_platform to.
  void run(MeasurementSink& sink) const;

  /// Runs one shard of the schedule, streaming into `sink`.  Every
  /// random draw is made from a stream keyed on the measurement's
  /// schedule coordinates (never on execution order), and a shard
  /// starting mid-year reads its link state from the churn trajectory
  /// and rebuilds the previous epoch's routing view to prime the
  /// flutter history of its first day's sessions — so the union of the
  /// streams emitted by any disjoint tiling of shards is bit-identical
  /// to the serial run's stream.
  /// on_day_start fires once per shard per covered day, and on_path
  /// once per (epoch, destination, vantage).  Node paths are computed
  /// only for the (vantage, destination) cells with a session that day,
  /// and in a day's last epoch for those with one the next day.  The
  /// shard emits through one reused Measurement whose hop lists, truth
  /// path and path buffers keep their capacity from record to record,
  /// so steady-state emission allocates nothing.  The shard builds its
  /// own routing view of every epoch it covers (plus the priming view),
  /// so concurrent shards share no mutable state.
  void run_shard(MeasurementSink& sink, const ShardRange& range) const;

  /// Runs days [day_begin, day_end) on sinks.size() workers; worker w
  /// streams everything it runs into *sinks[w], and worker 0 is the
  /// calling thread.  With more than one sink and at least as many days
  /// as sinks, the work is one task per day (every vantage), and
  /// workers claim days in ascending order from one shared counter:
  /// which sink runs which day depends on timing.  Otherwise worker w
  /// runs vantage chunk w of sinks.size() near-even chunks over the
  /// whole range as one shard, so one sink is one serial run of the
  /// range.  Either way every sink's stream ascends in schedule order
  /// (as tomo::hand_off_clauses requires) and the union of the streams
  /// is the serial run's.  Sinks must be distinct; splitting vantages
  /// needs no more sinks than vantages.  Rethrows the first exception a
  /// task threw, after every worker stopped.  num_run_days_sinks picks
  /// the sink count, and so the way, for a given number of threads.
  void run_days(util::Day day_begin, util::Day day_end,
                const std::vector<MeasurementSink*>& sinks) const;

  /// How many sinks run_days should get for a range of `num_days` days
  /// on `workers` threads.  A range of at least min(workers, 4) days
  /// gets min(workers, num_days) sinks and so runs as day claims: every
  /// day's routing views are computed once, and threads past the
  /// range's days stay idle.  A shorter range gets min(workers,
  /// vantages) sinks and so runs as vantage chunks, each of which
  /// computes every epoch's routing views again (about 0.4 ms per extra
  /// chunk against about 5 ms of platform work per epoch), so chunks
  /// are kept to ranges too short to keep the threads busy with days.
  /// Throws std::invalid_argument for no days or no workers.
  std::size_t num_run_days_sinks(util::Day num_days, std::size_t workers) const;

  /// The churn process over the whole schedule (num_days x
  /// epochs_per_day epochs), recorded on first use: once per platform,
  /// thread-safe, and never at construction, which stays cheap.
  const bgp::ChurnTrajectory& churn_trajectory() const;

  const std::vector<topo::AsId>& vantages() const { return vantages_; }
  const std::vector<Url>& urls() const { return urls_; }
  const std::vector<topo::AsId>& dest_ases() const { return dest_ases_; }
  const PlatformConfig& config() const { return config_; }

 private:
  struct ShardScratch;
  /// run_shard on a worker's reused scratch.
  void run_range(MeasurementSink& sink, const ShardRange& range, ShardScratch& scratch) const;

  const topo::AsGraph& graph_;
  const censor::CensorRegistry& registry_;
  const net::AddressPlan& plan_;
  PlatformConfig config_;
  std::uint64_t seed_;

  std::vector<topo::AsId> vantages_;
  std::vector<topo::AsId> dest_ases_;
  std::vector<Url> urls_;

  /// URL ids by destination index, so each epoch computes one route
  /// table per destination.
  std::vector<std::vector<std::int32_t>> urls_by_dest_;

  mutable std::once_flag trajectory_once_;
  mutable std::unique_ptr<const bgp::ChurnTrajectory> trajectory_;
};

/// Table-1 accumulator: dataset characteristics.
class DatasetSummary : public MeasurementSink {
 public:
  /// URL ids are bounded by `num_urls` (the platform's URL list).
  DatasetSummary(const topo::AsGraph& graph, std::int32_t num_urls)
      : graph_(&graph),
        seen_vantages_(static_cast<std::size_t>(graph.num_ases()), 0),
        seen_urls_(static_cast<std::size_t>(num_urls), 0) {}

  /// Throws std::out_of_range, changing nothing, for a URL id outside
  /// [0, num_urls) or a vantage outside the graph.
  void on_measurement(const Measurement& m) override;

  /// Folds a shard-local summary into this one.  Associative and
  /// commutative, with a fresh summary as identity: every statistic the
  /// class exposes is a sum or a distinct-count, so merge order never
  /// shows in the outputs.  Throws std::invalid_argument, changing
  /// nothing, for a summary of another graph size or URL count.
  void merge(DatasetSummary&& other);

  std::int64_t measurements() const { return measurements_; }
  std::int64_t anomaly_count(censor::Anomaly a) const {
    return anomaly_counts_[static_cast<std::size_t>(a)];
  }
  double anomaly_fraction(censor::Anomaly a) const;
  std::int64_t unreachable() const { return unreachable_; }
  /// Distinct vantage ASes / URLs / countries seen in the stream.
  std::int64_t distinct_vantages() const;
  std::int64_t distinct_urls() const;
  std::int64_t distinct_countries() const;

  /// Checkpoint support (analysis/checkpoint.h): persists everything
  /// but the graph reference.  Each distinct set is written as its count,
  /// then its ids in ascending order.  load() throws util::SerdeError,
  /// leaving the summary untouched, for a negative id, a vantage id past
  /// the graph, a URL id not below the constructor's `num_urls`, or an
  /// id that repeats or is out of order.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  const topo::AsGraph* graph_;  // a pointer, so summaries are assignable
  std::int64_t measurements_ = 0;
  std::int64_t unreachable_ = 0;
  std::array<std::int64_t, censor::kNumAnomalies> anomaly_counts_{};
  // Distinct sets as dense seen-flags, not per-measurement logs: the
  // resident monitor holds one summary for a multi-year stream, so
  // per-measurement state here would break its O(open windows) memory
  // contract.  Vantage flags cover the graph; URL flags cover the URL
  // list.
  std::vector<std::uint8_t> seen_vantages_;
  std::vector<std::uint8_t> seen_urls_;
};

}  // namespace ct::iclab
