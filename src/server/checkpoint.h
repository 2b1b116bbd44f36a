// The admission write-ahead log and the crash-recovery entry point.
//
// Crash consistency is a pair of artifacts: a `ServerCore::checkpoint`
// frame (the core's full state at some quiescent point) and an
// `AdmissionWal` — an append-only log with one checksummed record per
// ingest/admit batch and a marker per drain, group-committed at drain
// boundaries. `recover` puts them back together: it restores the
// newest checkpoint that validates (falling back candidate by
// candidate, then to a cold start), parses the WAL tolerating a torn
// tail (a half-written record and everything after it is dropped, never
// misread), skips the records the checkpoint already covers, and
// replays the rest through the ordinary ingest/drain path. Replay is
// deterministic — records carry the exact arguments the driver passed —
// so the recovered core's continuation is bit-identical to the
// uninterrupted run's (the kill-point oracle of tests/test_recovery.cpp).
//
// Graceful degradation: when recovery lands under capacity pressure (a
// reject/defer core whose channels are saturated at the recovered
// clock), `RecoveryOptions::degrade_under_pressure` flips admissions to
// the degrade path — clients get late batches and counted guarantee
// violations instead of refusals while the backlog clears.
#ifndef SMERGE_SERVER_CHECKPOINT_H
#define SMERGE_SERVER_CHECKPOINT_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/session.h"
#include "server/server_core.h"

namespace smerge::server {

/// What one WAL record describes.
enum class WalRecordType : std::uint8_t {
  kIngest = 1,          ///< one arrival: ingest_trace(object, {time})
  kIngestTrace = 2,     ///< a trace batch: ingest_trace(object, times)
  kIngestSessions = 3,  ///< a session batch: ingest_session_trace(...)
  kAdmit = 4,           ///< serial live path: admit(object, time)
  kDrain = 5,           ///< a drain boundary (the group-commit marker)
};

/// One parsed WAL record — the exact arguments to replay.
struct WalRecord {
  WalRecordType type = WalRecordType::kDrain;
  Index object = -1;
  std::vector<double> times;            ///< kIngest/kAdmit: one; kIngestTrace: all
  std::vector<SessionTrace> sessions;   ///< kIngestSessions only
};

/// Append-only admission log (`smerge-wal-v1`). Records accumulate in
/// memory; `commit_to_file` is the fsync-optional group commit the
/// driver calls at drain boundaries. Every record is individually
/// length-prefixed and checksummed, so a torn tail is detected record
/// by record, never misread.
class AdmissionWal {
 public:
  AdmissionWal();

  void log_ingest(Index object, double time);
  void log_ingest_trace(Index object, std::span<const double> times);
  void log_ingest_sessions(Index object,
                           std::span<const SessionTrace> sessions);
  void log_admit(Index object, double time);
  void log_drain();

  /// Records appended so far — the cursor `ServerCore::checkpoint`
  /// stores so recovery knows where replay starts.
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
  /// The serialized log (header + records).
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }

  /// Group commit: writes the whole log to `path` (optionally fsynced).
  void commit_to_file(const std::string& path, bool fsync) const;

 private:
  void append_record(std::span<const std::uint8_t> payload);

  std::vector<std::uint8_t> bytes_;
  std::uint64_t records_ = 0;
};

/// Outcome of parsing a WAL byte stream.
struct WalReadResult {
  std::vector<WalRecord> records;  ///< every record before the first damage
  std::size_t dropped_bytes = 0;   ///< torn/corrupt suffix length
  bool torn = false;               ///< true when a suffix was dropped
};

/// Parses WAL bytes written by AdmissionWal. A damaged record (bad
/// checksum, truncated frame, malformed payload) ends the parse: it and
/// everything after it are reported as the dropped torn tail. An
/// invalid *header* (wrong magic/version — not a crash artifact but a
/// wrong file) throws util::SnapshotError. An empty span is a valid
/// empty log.
[[nodiscard]] WalReadResult read_wal(std::span<const std::uint8_t> bytes);

/// Recovery knobs.
struct RecoveryOptions {
  /// Flip a reject/defer core to degrade when the recovered clock finds
  /// the channels saturated (serve everyone late rather than refuse).
  bool degrade_under_pressure = true;
};

/// What recovery did — which artifacts were usable and how.
struct RecoveryReport {
  bool used_checkpoint = false;
  std::size_t checkpoint_index = 0;  ///< candidate restored (newest-first)
  std::vector<std::string> rejected_checkpoints;  ///< error per bad candidate
  std::uint64_t wal_records_total = 0;
  std::uint64_t wal_records_replayed = 0;
  std::size_t wal_dropped_bytes = 0;
  bool wal_torn = false;
  bool degraded_admissions = false;
};

/// A recovered core plus everything the driver needs to resume: the
/// recovery report, its own checkpoint-time extension blob, and the
/// replayed tail records (from which per-object resume cursors follow).
struct RecoveredCore {
  std::unique_ptr<ServerCore> core;
  RecoveryReport report;
  std::vector<std::uint8_t> driver_blob;
  std::vector<WalRecord> replayed;
};

/// Recovers a core from checkpoint candidates (newest first) and a WAL.
/// Tries each candidate in order — construct a fresh core from
/// `config` (+ `policy` for ServeMode::kPolicy; must outlive the core),
/// restore, and on a structured validation failure fall back to the
/// next — then replays the WAL tail past the restored cursor. With no
/// valid candidate the whole WAL replays against a cold core. Throws
/// util::SnapshotError only for a WAL that is not a WAL at all (bad
/// file header); damaged checkpoints and torn tails are handled and
/// reported, never fatal.
[[nodiscard]] RecoveredCore recover(
    const ServerCoreConfig& config, OnlinePolicy* policy,
    std::span<const std::vector<std::uint8_t>> checkpoints_newest_first,
    std::span<const std::uint8_t> wal, const RecoveryOptions& options = {});

}  // namespace smerge::server

#endif  // SMERGE_SERVER_CHECKPOINT_H
