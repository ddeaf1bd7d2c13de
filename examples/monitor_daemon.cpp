// Crash-safe resident monitor daemon (README "Resident monitor &
// checkpoints"): runs the measurement platform as a continuous ingest
// loop on analysis::MonitorEngine, serving LiveReport snapshots to
// concurrent readers, periodically writing resumable checkpoints, and
// finishing with the full experiment report — byte-identical to
// run_experiment's for any segment length, and to itself across any
// kill/resume sequence.
//
//   $ ./monitor_daemon [flags]
//     --small                small scenario (default: paper-scale year)
//     --regime NAME          scenario regime: baseline (default), routing,
//                            multipath, adaptive or pathdiv; part of the
//                            checkpoint fingerprint
//     --seed S               scenario seed
//     --days N | --years N   override the scenario's run length
//     --shards N             platform workers per segment (default 0 = one per
//                            hardware thread; capped at the hardware)
//     --threads N            SAT worker lanes (0 = hardware)
//     --segment-days N       ingest segment length (default 28)
//     --checkpoint FILE      checkpoint file (atomic tmp+rename writes)
//     --checkpoint-every N   cadence in watermark days (default 28)
//     --resume               restore FILE before ingesting (if present);
//                            a FILE that cannot be restored exits 1 and
//                            is left unchanged
//     --kill-at DAY          simulate a crash: stop dead at watermark
//                            DAY, exit 3 — no final checkpoint, no
//                            report; resume from the last cadence write
//     --readers N            concurrent LiveReport poller threads (at most
//                            one per hardware thread)
//     --pace-ms MS           live-feed pacing: sleep MS between segments
//     --assert-flat-memory   verify the O(open windows) memory contract
//
// Replay mode (default) ingests as fast as possible; --pace-ms turns
// the same loop into a paced live feed.  The final line prints
// "report-hash <hex>" over the canonical report bytes — the CI smoke
// job compares a straight run against a killed-and-resumed run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "analysis/checkpoint.h"
#include "analysis/monitor.h"
#include "analysis/report.h"
#include "censor/regime.h"
#include "cli.h"
#include "util/thread_pool.h"

namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  using ct::analysis::MonitorEngine;
  using ct::analysis::MonitorOptions;
  using ct::analysis::MonitorStats;
  using ct::examples::parse_flag;

  const ct::examples::Usage usage{
      argv[0],
      "[--small] [--regime NAME] [--seed S] [--days N | --years N]\n"
      "  [--shards N] [--threads N] [--segment-days N]\n"
      "  [--checkpoint FILE] [--checkpoint-every N] [--resume] [--kill-at DAY]\n"
      "  [--readers N] [--pace-ms MS] [--assert-flat-memory]"};
  bool small = false;
  ct::censor::ScenarioRegime regime = ct::censor::ScenarioRegime::kBaseline;
  std::optional<std::uint64_t> seed;
  std::optional<ct::util::Day> days;
  MonitorOptions options;
  options.checkpoint_every = 28;

  bool resume = false;
  bool assert_flat = false;
  ct::util::Day kill_at = -1;
  int readers = 0;
  int pace_ms = 0;
  constexpr std::int32_t kMaxInt = std::numeric_limits<std::int32_t>::max();
  constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();
  const auto max_readers = static_cast<std::int32_t>(ct::util::ThreadPool::hardware_threads());

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&] { return ct::examples::flag_value(usage, argc, argv, i); };
    // Non-negative flag values: every count, day and duration below.
    const auto count = [&] { return parse_flag<std::int32_t>(usage, arg, next(), 0, kMaxInt); };
    if (arg == "--small") {
      small = true;
    } else if (arg == "--regime") {
      regime = ct::examples::parse_regime_flag(usage, next());
    } else if (arg == "--seed") {
      seed = parse_flag<std::uint64_t>(usage, arg, next(), 0, kMaxSeed);
    } else if (arg == "--days") {
      days = parse_flag<std::int32_t>(usage, arg, next(), 1, kMaxInt);
    } else if (arg == "--years") {
      days = ct::util::kDaysPerYear *
             parse_flag<std::int32_t>(usage, arg, next(), 1, kMaxInt / ct::util::kDaysPerYear);
    } else if (arg == "--shards") {
      options.experiment.num_platform_shards = static_cast<unsigned>(count());
    } else if (arg == "--threads") {
      options.experiment.num_threads = static_cast<unsigned>(count());
    } else if (arg == "--segment-days") {
      options.segment_days = parse_flag<std::int32_t>(usage, arg, next(), 1, kMaxInt);
    } else if (arg == "--checkpoint") {
      options.checkpoint_path = next();
    } else if (arg == "--checkpoint-every") {
      options.checkpoint_every = count();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--kill-at") {
      kill_at = count();
    } else if (arg == "--readers") {
      readers = parse_flag<std::int32_t>(usage, arg, next(), 0, max_readers);
    } else if (arg == "--pace-ms") {
      pace_ms = count();
    } else if (arg == "--assert-flat-memory") {
      assert_flat = true;
    } else {
      usage.fail("unknown flag " + arg);
    }
  }
  // --small picks the base scenario; the other scenario flags override
  // it in any order.
  ct::analysis::ScenarioConfig config =
      small ? ct::analysis::small_scenario() : ct::analysis::default_scenario();
  config.regime.regime = regime;
  if (seed.has_value()) config.seed = *seed;
  if (days.has_value()) config.platform.num_days = *days;

  ct::analysis::Scenario scenario(config);
  MonitorEngine monitor(scenario, options);

  std::cout << "monitor_daemon: seed " << config.seed << ", scenario "
            << ct::censor::to_string(config.regime.regime) << ", " << config.platform.num_days
            << " days, segment " << options.segment_days << "d, shards "
            << options.experiment.num_platform_shards << ", threads "
            << options.experiment.num_threads << ", checkpoint "
            << (options.checkpoint_path.empty() ? "(off)" : options.checkpoint_path)
            << " every " << options.checkpoint_every << "d\n";

  if (resume && !options.checkpoint_path.empty()) {
    // Only a file known to be absent starts cold; one whose status
    // cannot be read goes through restore_from and is refused there.
    std::error_code status_error;
    if (!std::filesystem::exists(options.checkpoint_path, status_error) && !status_error) {
      std::cout << "no checkpoint at " << options.checkpoint_path << "; starting cold\n";
    } else {
      // A refused checkpoint (other format version, other fingerprint,
      // corrupt) is the only copy of that state: starting cold would
      // overwrite it at the first cadence write, so stop and leave it be.
      try {
        monitor.restore_from(options.checkpoint_path);
      } catch (const ct::analysis::CheckpointError& e) {
        std::cerr << "refusing to resume from " << options.checkpoint_path << ": " << e.what()
                  << "\n(the file is left unchanged; move it aside to start cold)\n";
        return 1;
      }
      std::cout << "resumed from " << options.checkpoint_path << " at watermark "
                << monitor.watermark() << "\n";
    }
  }

  // Concurrent LiveReport readers: each attaches to the snapshot server
  // and polls until ingest completes, checking watermark monotonicity.
  std::atomic<bool> stop{false};
  std::atomic<bool> reader_failed{false};
  std::vector<std::thread> reader_threads;
  reader_threads.reserve(static_cast<std::size_t>(readers));
  for (int rdr = 0; rdr < readers; ++rdr) {
    reader_threads.emplace_back([&monitor, &stop, &reader_failed] {
      ct::analysis::LiveReportServer::Reader reader(monitor.reports());
      ct::util::Day last = -1;
      while (!stop.load(std::memory_order_relaxed)) {
        if (const auto report = reader.snapshot()) {
          if (report->watermark < last) reader_failed.store(true);
          last = report->watermark;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  // The resident loop: one segment per iteration (paced when asked),
  // with automatic cadence checkpoints inside run_until.  --kill-at
  // stops the process dead between segments — no teardown checkpoint —
  // exactly what a crash leaves behind.
  const ct::util::Day end =
      kill_at >= 0 ? std::min(kill_at, monitor.num_days()) : monitor.num_days();
  std::int64_t flat_baseline = 0;
  while (monitor.watermark() < end) {
    monitor.run_until(std::min<ct::util::Day>(end, monitor.watermark() + options.segment_days));
    const MonitorStats stats = monitor.stats();
    if (flat_baseline == 0 && stats.segments_ingested >= 2) {
      flat_baseline = stats.retained_clauses_peak;
    }
    std::cout << "watermark " << stats.watermark << "/" << monitor.num_days()
              << "  open-windows " << stats.open_main_windows
              << "  churn-open " << stats.churn_open_entries
              << "  churn fail/rep/down " << stats.churn_failures << "/" << stats.churn_repairs
              << "/" << stats.churn_links_down << "  retained-peak "
              << stats.retained_clauses_peak << "  reads " << stats.engine.snapshot_reads << "\n";
    if (pace_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(pace_ms));
  }

  if (kill_at >= 0) {
    std::cout << "killed at watermark " << monitor.watermark() << " (simulated crash)\n";
    stop.store(true);
    for (std::thread& t : reader_threads) t.join();
    return 3;
  }

  const ct::analysis::ExperimentResult result = monitor.finalize();
  stop.store(true);
  for (std::thread& t : reader_threads) t.join();

  const MonitorStats stats = monitor.stats();
  std::cout << "\nsegments " << stats.segments_ingested << ", checkpoints "
            << stats.checkpoints_written << ", snapshots " << stats.engine.snapshots_published
            << ", reads " << stats.engine.snapshot_reads << " (stale "
            << stats.engine.snapshot_stale_reads << ", peak readers "
            << stats.engine.snapshot_peak_readers << ")\n"
            << "retained clauses: peak " << stats.retained_clauses_peak << ", now "
            << stats.retained_clauses_now << ", underflows " << stats.gauge_underflows
            << "\n";
  std::cout << ct::analysis::render_headline(result)
            << ct::analysis::render_score(result, scenario);

  bool ok = !reader_failed.load();
  if (!ok) std::cerr << "FAIL: a reader observed a watermark regression\n";
  if (assert_flat) {
    // Flat-memory contract: the retained-clause peak must not grow with
    // run length (it is set by segment size), every segment must drain
    // to zero, and the gauge must never underflow.
    if (stats.retained_clauses_now != 0) {
      std::cerr << "FAIL: " << stats.retained_clauses_now << " clauses retained at end\n";
      ok = false;
    }
    if (stats.gauge_underflows != 0) {
      std::cerr << "FAIL: " << stats.gauge_underflows << " gauge underflows\n";
      ok = false;
    }
    if (flat_baseline > 0 && stats.retained_clauses_peak > 2 * flat_baseline) {
      std::cerr << "FAIL: retained-clause peak " << stats.retained_clauses_peak
                << " grew past 2x the two-segment baseline " << flat_baseline
                << " (memory is not flat in run length)\n";
      ok = false;
    }
  }

  std::cout << "report-hash " << std::hex << fnv1a(ct::analysis::serialize_report(result))
            << std::dec << "\n";
  return ok ? 0 : 1;
}
