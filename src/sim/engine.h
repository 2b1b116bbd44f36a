// The discrete-event multi-object simulation engine — now a thin
// workload driver over the live serving runtime
// (src/server/server_core.h).
//
// One run drives a catalogue of N media objects (each of normalized
// length 1.0) under a pluggable on-line policy (src/online/policy.h) and
// a pluggable workload (src/sim/workload.h):
//
//  1. Arrival traces are generated per object (each object draws from
//     its own split RNG substream, so a trace is a pure function of
//     (config, object)) and ingested into the ServerCore's per-shard
//     mailboxes.
//  2. The core's drain()/finish() deliver every object's arrivals in
//     time order to its ObjectPolicy on the persistent
//     util::ThreadPool and fold the results in a fixed object-id
//     order, so the outcome is bit-identical for any thread count.
//  3. The server-wide channel occupancy comes from the core's
//     incremental bucketed ledger — the same canonical event order the
//     old end-of-run k-way merge swept, now queryable mid-run.
//
// The engine remains the ROADMAP's scenario substrate: a new experiment
// is a workload or policy plug-in, not a hand-rolled loop. Code that
// wants live queries (current/peak channels, running percentiles,
// capacity-aware admission) drives a server::ServerCore directly.
#ifndef SMERGE_SIM_ENGINE_H
#define SMERGE_SIM_ENGINE_H

#include "core/plan.h"
#include "online/policy.h"
#include "server/server_core.h"
#include "sim/workload.h"
#include "util/stats.h"

namespace smerge::sim {

/// One engine run: workload x policy x server model.
struct EngineConfig {
  WorkloadConfig workload;
  double delay = 0.01;         ///< guaranteed start-up delay (fraction of media)
  Index channel_capacity = 0;  ///< server channels; 0 = unbounded
  unsigned threads = 1;        ///< object-shard fan-out width
  /// Mid-session behaviour (pause / seek / abandon). When any rate is
  /// positive the run goes through the core's session path: traces are
  /// generated per session on a churn-salted substream (arrivals are
  /// unchanged), and each object's plan is repaired in place at the
  /// horizon — subtree truncation, re-roots, ledger retraction.
  SessionChurnConfig churn;
  /// Segment timeline attached to emitted plans (`plan::ChunkingConfig`,
  /// disabled by default).
  plan::ChunkingConfig chunking;
  /// Also return every transmission interval (start-ordered), the input
  /// `assign_channels` needs for a concrete channel plan. Off by
  /// default: it is O(total streams) extra memory.
  bool collect_stream_intervals = false;
  /// Also assemble each object's emitted schedule into a canonical
  /// `plan::MergePlan` (parents from the policy's `start_stream` calls,
  /// per-stream delays from the admissions it served) — the engine's
  /// verifiable per-object output. Off by default: O(total streams)
  /// extra memory.
  bool collect_plans = false;
};

/// Exact client start-up delay distribution (nearest-rank percentiles).
using DelayProfile = util::DelayProfile;

/// Per-object outcome (index = object id).
using ObjectOutcome = server::ObjectOutcome;

/// Aggregate outcome of a run: the core's end-of-run snapshot (its
/// admission counters stay zero — the engine admits in observe mode).
/// Deterministic for a fixed config — including `threads`, which never
/// changes any field.
using EngineResult = server::Snapshot;

/// Builds the ServerCore configuration an engine run uses — exposed so
/// benches and examples can drive the core directly (live queries,
/// chunked ingest) on the exact engine setup.
[[nodiscard]] server::ServerCoreConfig core_config(const EngineConfig& config);

/// Runs the simulation. `policy.prepare(delay, horizon)` is invoked
/// once (single-threaded) before objects are sharded. Throws
/// std::invalid_argument on a bad config.
[[nodiscard]] EngineResult run_engine(const EngineConfig& config,
                                      OnlinePolicy& policy);

}  // namespace smerge::sim

#endif  // SMERGE_SIM_ENGINE_H
