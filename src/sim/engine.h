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

#include <vector>

#include "core/plan.h"
#include "online/policy.h"
#include "schedule/channels.h"
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

/// Aggregate outcome of a run. Deterministic for a fixed config —
/// including `threads`, which never changes any field.
struct EngineResult {
  Index total_arrivals = 0;
  Index total_streams = 0;
  double streams_served = 0.0;      ///< total cost / media length
  DelayProfile wait;
  Index peak_concurrency = 0;       ///< server-wide channel peak
  Index guarantee_violations = 0;   ///< sum of per-object violations
  Index capacity_violations = 0;    ///< stream starts above channel_capacity
  // Session lifecycle totals (zero unless churn is enabled).
  Index total_sessions = 0;
  Index session_pauses = 0;
  Index session_seeks = 0;
  Index session_abandons = 0;
  Index plan_truncations = 0;       ///< stream ends pulled earlier by repair
  Index plan_reroots = 0;           ///< subtrees detached and re-rooted
  double retracted_cost = 0.0;      ///< media units cancelled by repair
  double extended_cost = 0.0;       ///< media units added by re-roots
  std::vector<ObjectOutcome> per_object;
  /// All transmission intervals sorted by start time (deterministic:
  /// ties keep object-id order); empty unless
  /// `EngineConfig::collect_stream_intervals` is set. Feed to
  /// `assign_channels` for a physical channel plan.
  std::vector<StreamInterval> stream_intervals;
  /// Per-object canonical plans (index = object id, media length 1.0);
  /// empty unless `EngineConfig::collect_plans` is set. Each passes
  /// `plan::verify` for the shipped policies — the cross-check the
  /// engine tests and benches run.
  std::vector<plan::MergePlan> plans;
};

/// True when `wait` exceeds `delay` beyond floating-point slot-boundary
/// rounding — the single definition of a guarantee violation (the
/// serving core's `server::violates_guarantee`), shared by the engine,
/// the benches and the tests.
[[nodiscard]] bool violates_guarantee(double wait, double delay) noexcept;

/// Builds the ServerCore configuration an engine run uses — exposed so
/// benches and examples can drive the core directly (live queries,
/// chunked ingest) on the exact engine setup.
[[nodiscard]] server::ServerCoreConfig core_config(const EngineConfig& config);

/// Maps the core's end-of-run snapshot onto the engine result shape.
[[nodiscard]] EngineResult to_engine_result(server::Snapshot&& snapshot);

/// Runs the simulation. `policy.prepare(delay, horizon)` is invoked
/// once (single-threaded) before objects are sharded. Throws
/// std::invalid_argument on a bad config.
[[nodiscard]] EngineResult run_engine(const EngineConfig& config,
                                      OnlinePolicy& policy);

}  // namespace smerge::sim

#endif  // SMERGE_SIM_ENGINE_H
