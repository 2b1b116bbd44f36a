// Wire-facing serialization for the serving runtime: tickets, live
// stats and end-of-run summaries encoded through the same typed
// little-endian substrate as the crash-consistency codec
// (util/snapshot.h), plus the canonical snapshot digest the network
// soak and the loopback bench assert identity on.
//
// Why a digest over `Snapshot` and not over `checkpoint()` bytes: the
// channel ledger's record is canonical, but the live `cost` is a float
// sum taken in object-id order per drain and each object's flush
// cursors follow the drains, so checkpoint *bytes* still depend on the
// drain cadence even though every *result* does not. `Snapshot` is the
// cadence-invariant surface — exact sorted percentiles, per-object
// outcomes in object-id order —
// so two runs of the same workload hash equal regardless of shard
// width, producer count or drain timing. That is exactly the identity
// the wire path must preserve against `ingest_trace`.
#ifndef SMERGE_SERVER_WIRE_H
#define SMERGE_SERVER_WIRE_H

#include <cstdint>

#include "server/server_core.h"

namespace smerge::util {
class SnapshotReader;
class SnapshotWriter;
}  // namespace smerge::util

namespace smerge::server {

/// Appends every Ticket field to `writer` (bit-exact doubles). The wire
/// TICKET record is `u64 request_id` followed by these bytes.
void write_ticket(util::SnapshotWriter& writer, const Ticket& ticket);

/// Mirror of `write_ticket`. Throws util::SnapshotError on truncation.
[[nodiscard]] Ticket read_ticket(util::SnapshotReader& reader);

/// Appends every LiveStats field to `writer`.
void write_live_stats(util::SnapshotWriter& writer, const LiveStats& stats);

/// Mirror of `write_live_stats`.
[[nodiscard]] LiveStats read_live_stats(util::SnapshotReader& reader);

/// End-of-run totals carried by the FINISHED record: the snapshot
/// digest plus the headline scalars a client needs to certify a run
/// without pulling the whole per-object table over the wire.
struct WireSummary {
  bool ok = false;               ///< false: finish failed server-side
  std::uint64_t digest = 0;      ///< snapshot_digest() of the final state
  Index total_arrivals = 0;
  Index total_streams = 0;
  double streams_served = 0.0;
  Index peak_concurrency = 0;
  Index guarantee_violations = 0;
  Index rejected = 0;
  util::DelayProfile wait;       ///< exact end-of-run percentiles
};

/// Builds the summary (with `ok = true`) from a finished snapshot.
[[nodiscard]] WireSummary summarize(const Snapshot& snapshot);

void write_summary(util::SnapshotWriter& writer, const WireSummary& summary);
[[nodiscard]] WireSummary read_summary(util::SnapshotReader& reader);

/// FNV-1a 64 over the canonical serialization of a snapshot's totals,
/// exact wait percentiles and every per-object outcome (collected
/// intervals/plans excluded — the wire path never records them). Equal
/// digests certify equal results: the serialization is bit-exact and
/// covers every field the engine reduction reports.
[[nodiscard]] std::uint64_t snapshot_digest(const Snapshot& snapshot);

}  // namespace smerge::server

#endif  // SMERGE_SERVER_WIRE_H
