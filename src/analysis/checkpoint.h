// Versioned checkpoint envelope + report serialization for the
// resident monitor (analysis/monitor.h).
//
// A checkpoint is a single byte string:
//
//   magic "CTCP" | format version | config fingerprint | watermark |
//   payload checksum | payload length | payload
//
// The payload is the monitor's serialized persistent state (sealed
// folds, open window groups, churn fold, cumulative SAT counters); this
// layer owns only the envelope, so the format version can evolve
// without the monitor knowing about byte layouts.  open_checkpoint()
// refuses — with a clean CheckpointError, never UB — anything whose
// magic, version, or fingerprint does not match, any truncated or
// overlong buffer, and any payload whose checksum does not match.  The
// checksum is verified before a single payload byte is parsed, so a
// corrupt length or id inside the payload never reaches a loader.  The
// checksum is not a MAC: loaders still bound every id they index by,
// as their part's mutators do (StreamingCnfBuilder::load, like add(),
// refuses a url_id outside the chain table its constructor sized).
//
// The fingerprint hashes exactly the configuration that determines
// results: the scenario (seed + geometry) and the analysis options
// (min_support, fig1 granularities).  Execution knobs — shards and
// threads — are deliberately excluded:
// verdicts are pure functions of (CNF, options) across all of them, so
// a checkpoint written under one execution mode may resume under
// another and still reproduce the identical final report.
//
// serialize_report() renders every result field EXCEPT engine_stats
// (execution counters legitimately differ between a straight run and a
// kill/resume run) into a canonical byte string — the "byte-identical
// final report" the crash/resume suites and the CI smoke job compare.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "analysis/experiment.h"
#include "util/serde.h"

namespace ct::analysis {

/// Thrown on any malformed, mismatched, or unreadable checkpoint.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kCheckpointMagic = 0x43544350u;  // "CTCP"
// v2: EngineStats grew two more backend counter slots and the racing
// counters — the byte layout changed, so v1 checkpoints
// are refused instead of misread.
// v3: EngineStats lost the delta-load counters, and the envelope gained
// the payload checksum; v2 checkpoints are refused by the same rule.
// v4: the payload holds the main pass's, the Figure-4 pass's and the
// snapshot server's counters as three EngineStats records instead of
// one combined record; v3 checkpoints are refused by the same rule.
// v5: each CNF grouper stores only what it restores — its open window
// groups (key, positive ids, sorted negative ids) and its watermark,
// no longer an empty private path pool, a sorted copy of each group's
// positive ids, or its emitted-CNF count; v4 checkpoints are refused by
// the same rule.
// v6: EngineStats lost the racing counters; v5 checkpoints are refused
// by the same rule.
// v7: EngineStats lost the models-found and per-slot selected counters,
// which only a SAT search filled; v6 checkpoints are refused by the
// same rule.
inline constexpr std::uint32_t kCheckpointVersion = 7;

/// Hash of everything that determines the run's results (see header
/// comment for what is deliberately excluded).
std::uint64_t config_fingerprint(const Scenario& scenario, const ExperimentOptions& options);

/// Wraps `payload` in the versioned envelope.
std::string seal_checkpoint(std::uint64_t fingerprint, util::Day watermark,
                            const std::string& payload);

struct OpenedCheckpoint {
  util::Day watermark = 0;
  std::string payload;
};

/// Validates the envelope and returns the payload.  Throws
/// CheckpointError on bad magic, unknown version, fingerprint mismatch,
/// a truncated/overlong buffer, or a payload checksum mismatch.
OpenedCheckpoint open_checkpoint(const std::string& bytes, std::uint64_t expected_fingerprint);

/// Crash-safe file write: writes to `path`.tmp, fsyncs it, renames it
/// over `path` and fsyncs the directory — a kill mid-checkpoint leaves
/// the previous checkpoint intact, never a torn file.  Throws
/// CheckpointError on IO failure (a temp file that failed to sync is
/// removed).
void write_checkpoint_file(const std::string& path, const std::string& bytes);

/// Reads a whole file; throws CheckpointError if unreadable.
std::string read_checkpoint_file(const std::string& path);

// --- canonical byte renderings --------------------------------------
// Freestanding serializers for the public result structs (the folds and
// sinks carry their own save/load members).

void save_clause_stats(util::ByteWriter& w, const tomo::ClauseBuildStats& stats);
tomo::ClauseBuildStats load_clause_stats(util::ByteReader& r);

/// SAT engine counters — the monitor checkpoints one cumulative record
/// per analysis pass (and one for its snapshot server) so counters keep
/// accumulating across a kill/resume (they are
/// still excluded from serialize_report(): a resumed run's counters
/// legitimately differ from a straight run's).
void save_engine_stats(util::ByteWriter& w, const tomo::EngineStats& stats);
tomo::EngineStats load_engine_stats(util::ByteReader& r);

/// Canonical bytes of every ExperimentResult field except engine_stats.
/// Two results serialize identically iff their data products are
/// identical — the crash/resume byte-identity oracle.
std::string serialize_report(const ExperimentResult& result);

}  // namespace ct::analysis
