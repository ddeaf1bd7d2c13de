#include "analysis/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string_view>
#include <utility>

#include "util/rng.h"

namespace ct::analysis {

namespace {

void save_as_vec(util::ByteWriter& w, const std::vector<topo::AsId>& v) {
  util::save_vec(w, v, [](util::ByteWriter& w, topo::AsId as) { w.i32(as); });
}

void save_split(util::ByteWriter& w, const SolutionSplit& split) {
  for (const std::int64_t c : split.count) w.i64(c);
}

void save_gran(util::ByteWriter& w, util::Granularity g) {
  w.u8(static_cast<std::uint8_t>(g));
}

void save_score(util::ByteWriter& w, const tomo::CensorScore& score) {
  w.i32(score.true_positives);
  w.i32(score.false_positives);
  w.i32(score.false_negatives);
  save_as_vec(w, score.false_positive_ases);
  save_as_vec(w, score.false_negative_ases);
}

void save_leakage(util::ByteWriter& w, const tomo::LeakageReport& leakage) {
  save_as_vec(w, leakage.censors);
  util::save_map(
      w, leakage.by_censor, [](util::ByteWriter& w, topo::AsId as) { w.i32(as); },
      [](util::ByteWriter& w, const tomo::CensorLeaks& leaks) {
        w.i32(leaks.censor);
        util::save_set(w, leaks.victim_ases,
                       [](util::ByteWriter& w, topo::AsId as) { w.i32(as); });
        util::save_set(w, leaks.victim_countries,
                       [](util::ByteWriter& w, topo::CountryId c) { w.i32(c); });
      });
  util::save_map(
      w, leakage.country_flow,
      [](util::ByteWriter& w, const std::pair<topo::CountryId, topo::CountryId>& key) {
        w.i32(key.first);
        w.i32(key.second);
      },
      [](util::ByteWriter& w, std::int64_t n) { w.i64(n); });
}

void save_churn_stats(util::ByteWriter& w, const ChurnStats& stats) {
  util::save_map(w, stats.distinct_paths, save_gran,
                 [](util::ByteWriter& w, const util::BucketedCounts& counts) {
                   counts.save(w);
                 });
  util::save_map(w, stats.changed_fraction, save_gran,
                 [](util::ByteWriter& w, double f) { w.f64(f); });
  util::save_map(
      w, stats.changed_by_dest_class,
      [](util::ByteWriter& w, topo::AsClass cls) { w.u8(static_cast<std::uint8_t>(cls)); },
      [](util::ByteWriter& w, double f) { w.f64(f); });
}

/// 64-bit FNV-1a over the payload bytes.  Every step is a bijection of
/// the running hash, so any single corrupted byte always changes it.
std::uint64_t payload_checksum(std::string_view payload) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : payload) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::uint64_t config_fingerprint(const Scenario& scenario, const ExperimentOptions& options) {
  const ScenarioConfig& config = scenario.config();
  const iclab::PlatformConfig& platform = config.platform;
  std::uint64_t h = 0x43544350u;  // domain-separate from other mix64 users
  h = util::mix64(h, config.seed);
  h = util::mix64(h, static_cast<std::uint64_t>(platform.num_days));
  h = util::mix64(h, static_cast<std::uint64_t>(platform.epochs_per_day));
  h = util::mix64(h, static_cast<std::uint64_t>(platform.num_vantages));
  h = util::mix64(h, static_cast<std::uint64_t>(platform.vp_nodes_per_as));
  h = util::mix64(h, static_cast<std::uint64_t>(platform.num_urls));
  h = util::mix64(h, static_cast<std::uint64_t>(platform.num_dest_ases));
  h = util::mix64(h, std::bit_cast<std::uint64_t>(platform.test_prob));
  h = util::mix64(h, std::bit_cast<std::uint64_t>(platform.flutter_prob));
  // Scenario regime: ground truth and path emission both depend on it,
  // so a checkpoint written under one regime must refuse to resume
  // under another.
  h = util::mix64(h, static_cast<std::uint64_t>(config.regime.regime) + 1);
  h = util::mix64(h, std::bit_cast<std::uint64_t>(config.regime.ingress_fraction));
  h = util::mix64(h, std::bit_cast<std::uint64_t>(config.regime.dither_fraction));
  h = util::mix64(h, static_cast<std::uint64_t>(config.regime.adaptive_period_days));
  h = util::mix64(h, static_cast<std::uint64_t>(options.min_support));
  h = util::mix64(h, options.analysis.count_cap);
  for (const util::Granularity g : options.fig1_granularities) {
    h = util::mix64(h, static_cast<std::uint64_t>(g) + 1);
  }
  return h;
}

std::string seal_checkpoint(std::uint64_t fingerprint, util::Day watermark,
                            const std::string& payload) {
  util::ByteWriter w;
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u64(fingerprint);
  w.i32(watermark);
  w.u64(payload_checksum(payload));
  w.str(payload);
  return w.take();
}

OpenedCheckpoint open_checkpoint(const std::string& bytes,
                                 std::uint64_t expected_fingerprint) {
  try {
    util::ByteReader r(bytes);
    if (r.u32() != kCheckpointMagic) {
      throw CheckpointError("checkpoint: bad magic (not a checkpoint file)");
    }
    const std::uint32_t version = r.u32();
    if (version != kCheckpointVersion) {
      throw CheckpointError("checkpoint: unsupported format version " +
                            std::to_string(version) + " (this build reads version " +
                            std::to_string(kCheckpointVersion) + ")");
    }
    const std::uint64_t fingerprint = r.u64();
    if (fingerprint != expected_fingerprint) {
      throw CheckpointError(
          "checkpoint: config fingerprint mismatch (written under a different "
          "scenario or analysis configuration)");
    }
    OpenedCheckpoint opened;
    opened.watermark = r.i32();
    const std::uint64_t checksum = r.u64();
    opened.payload = r.str();
    r.expect_end();
    if (payload_checksum(opened.payload) != checksum) {
      throw CheckpointError("checkpoint: payload checksum mismatch (corrupt checkpoint)");
    }
    return opened;
  } catch (const util::SerdeError& e) {
    throw CheckpointError(std::string("checkpoint: ") + e.what());
  }
}

void write_checkpoint_file(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw CheckpointError("checkpoint: cannot open " + tmp + " for writing");
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  // The bytes reach the disk before the rename can publish them.
  const bool synced = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0 || written != bytes.size() || !synced) {
    std::remove(tmp.c_str());
    throw CheckpointError("checkpoint: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("checkpoint: cannot rename " + tmp + " over " + path);
  }
  // The rename itself reaches the disk with the directory entry.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  const bool dir_synced = fd >= 0 && ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  if (!dir_synced) throw CheckpointError("checkpoint: cannot sync the directory of " + path);
}

std::string read_checkpoint_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw CheckpointError("checkpoint: cannot open " + path);
  std::string bytes;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw CheckpointError("checkpoint: read error on " + path);
  return bytes;
}

void save_clause_stats(util::ByteWriter& w, const tomo::ClauseBuildStats& stats) {
  w.i64(stats.measurements);
  w.i64(stats.dropped_no_mapping);
  w.i64(stats.dropped_traceroute_error);
  w.i64(stats.dropped_ambiguous_gap);
  w.i64(stats.dropped_divergent_paths);
  w.i64(stats.usable_measurements);
  w.i64(stats.clauses);
}

tomo::ClauseBuildStats load_clause_stats(util::ByteReader& r) {
  tomo::ClauseBuildStats stats;
  stats.measurements = r.i64();
  stats.dropped_no_mapping = r.i64();
  stats.dropped_traceroute_error = r.i64();
  stats.dropped_ambiguous_gap = r.i64();
  stats.dropped_divergent_paths = r.i64();
  stats.usable_measurements = r.i64();
  stats.clauses = r.i64();
  return stats;
}

void save_engine_stats(util::ByteWriter& w, const tomo::EngineStats& stats) {
  w.u64(stats.cnf_loads);
  w.u64(stats.solve_calls);
  w.u64(stats.fresh_clauses);
  w.u32(stats.arenas);
  w.u64(stats.snapshots_published);
  w.u64(stats.snapshot_reads);
  w.u64(stats.snapshot_stale_reads);
  w.u64(stats.snapshot_peak_readers);
  for (const sat::BackendCounters& b : stats.backends) {
    w.u64(b.served);
    w.u64(b.escalated);
  }
}

tomo::EngineStats load_engine_stats(util::ByteReader& r) {
  tomo::EngineStats stats;
  stats.cnf_loads = r.u64();
  stats.solve_calls = r.u64();
  stats.fresh_clauses = r.u64();
  stats.arenas = r.u32();
  stats.snapshots_published = r.u64();
  stats.snapshot_reads = r.u64();
  stats.snapshot_stale_reads = r.u64();
  stats.snapshot_peak_readers = r.u64();
  for (sat::BackendCounters& b : stats.backends) {
    b.served = r.u64();
    b.escalated = r.u64();
  }
  return stats;
}

std::string serialize_report(const ExperimentResult& result) {
  util::ByteWriter w;

  // Table 1.
  w.i64(result.table1.measurements);
  w.i64(result.table1.unique_urls);
  w.i64(result.table1.vantage_ases);
  w.i64(result.table1.dest_ases);
  w.i64(result.table1.countries);
  w.i64(result.table1.unreachable);
  for (const std::int64_t c : result.table1.anomaly_counts) w.i64(c);
  save_clause_stats(w, result.table1.clause_stats);

  // Figure 1.
  util::save_map(w, result.fig1.by_granularity, save_gran, save_split);
  util::save_map(
      w, result.fig1.by_anomaly,
      [](util::ByteWriter& w, censor::Anomaly a) { w.u8(static_cast<std::uint8_t>(a)); },
      save_split);
  save_split(w, result.fig1.overall);

  // Figure 2.
  util::save_vec(w, result.fig2.reduction_percent,
                 [](util::ByteWriter& w, double pct) { w.f64(pct); });
  w.f64(result.fig2.mean_reduction_percent);
  w.f64(result.fig2.fraction_no_elimination);
  w.i64(result.fig2.multi_solution_cnfs);

  // Figures 3 and 4.
  save_churn_stats(w, result.fig3);
  util::save_map(w, result.fig4.solution_counts, save_gran,
                 [](util::ByteWriter& w, const util::BucketedCounts& counts) {
                   counts.save(w);
                 });
  w.f64(result.fig4.fraction_five_plus);

  // Tables 2 and 3.
  util::save_vec(w, result.table2, [](util::ByteWriter& w, const Table2Row& row) {
    w.str(row.country_code);
    util::save_vec(w, row.censor_asns, [](util::ByteWriter& w, std::int32_t asn) {
      w.i32(asn);
    });
    util::save_vec(w, row.anomalies, [](util::ByteWriter& w, censor::Anomaly a) {
      w.u8(static_cast<std::uint8_t>(a));
    });
  });
  util::save_vec(w, result.table3, [](util::ByteWriter& w, const Table3Row& row) {
    w.i32(row.asn);
    w.str(row.country_code);
    w.i64(row.leaked_ases);
    w.i64(row.leaked_countries);
  });

  // Figure 5.
  util::save_vec(w, result.fig5.flows, [](util::ByteWriter& w, const Fig5Flow& flow) {
    w.str(flow.censor_country);
    w.str(flow.victim_country);
    w.i64(flow.weight);
    w.b(flow.same_region);
  });
  util::save_map(
      w, result.fig5.censors_per_country,
      [](util::ByteWriter& w, const std::string& code) { w.str(code); },
      [](util::ByteWriter& w, std::int64_t n) { w.i64(n); });
  w.f64(result.fig5.same_region_weight_fraction);

  // Censors, leakage, scores.
  save_as_vec(w, result.identified_censors);
  w.i32(result.censor_countries);
  save_leakage(w, result.leakage);
  save_score(w, result.score_all);
  save_score(w, result.score_observable);
  save_as_vec(w, result.observable_censors);
  w.i64(result.total_cnfs);

  return w.take();
}

}  // namespace ct::analysis
