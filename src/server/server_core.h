// The sharded, incremental serving runtime — the one live core behind
// the simulation engine, the network front end and the examples.
//
// A ServerCore hosts a catalogue of N media objects and ingests client
// arrivals incrementally, in either of two shapes:
//
//  * the batched path — `ingest_trace` appends arrivals to
//    per-shard mailboxes (objects are round-robined over shards);
//    `drain()` fans the shards out over the persistent
//    `util::ThreadPool`, delivering each object's pending arrivals in
//    time order to its `ObjectPolicy` (src/online/policy.h) and
//    counting its new waits into the shard's wait histogram, then runs
//    an epilogue that merges the shard histograms (integer addition),
//    folds cost and counts in object-id order and bulk-fills the new
//    streams into the channel ledger. Results never depend on the
//    shard count: an object's evolution is a pure function of its own
//    arrival sequence, the histogram merge and the ledger fill are
//    order-free and the fold order is fixed.
//  * the serial live path — `admit(object, time)` decides one arrival
//    immediately and returns a Ticket. Under slotted batching (where
//    the stream an admission needs is statically known) this is where
//    capacity-aware admission lives: a channel budget checked against
//    the incremental ledger *before* the client is accepted, with
//    selectable overload behaviour — reject, defer to a later slot, or
//    degrade to batching — instead of the legacy engine's post-hoc
//    violation counting.
//
// Live queries — current/peak channels, running delay percentiles
// (wait-histogram estimates or exact-on-demand) — are answerable
// at any quiescent point (between drains, or any time on the serial
// path), not just at end-of-run. `finish()` flushes the policies'
// horizon schedules; `take_snapshot()` then yields totals bit-identical
// to the legacy engine reduction (same fold orders, same canonical
// event order in the ledger).
#ifndef SMERGE_SERVER_SERVER_CORE_H
#define SMERGE_SERVER_SERVER_CORE_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/plan.h"
#include "core/plan_repair.h"
#include "core/session.h"
#include "online/policy.h"
#include "schedule/channels.h"
#include "server/channel_ledger.h"
#include "util/stats.h"

namespace smerge::util {
class WaitHistogram;
}  // namespace smerge::util

namespace smerge::server {

/// What happens when an admission's stream does not fit the channel
/// budget (slotted serving only; `kObserve` is the legacy accounting
/// mode and the only mode the generic policy path supports).
enum class AdmissionMode {
  kObserve,  ///< admit everything; count saturated starts post-hoc
  kReject,   ///< turn the client away; peak stays within the budget
  kDefer,    ///< retry later slots (bounded); guarantee runs from the
             ///< deferred admission, queueing time is reported per ticket
  kDegrade,  ///< never reject: coalesce into the first batch that fits
             ///< (waits may exceed the delay and are counted as
             ///< guarantee violations)
};

/// Human-readable admission-mode name.
[[nodiscard]] const char* to_string(AdmissionMode mode) noexcept;

/// How arrivals are served. The values are the serve byte of the
/// checkpoint's config echo; 1 was the retired slotted Delay Guaranteed
/// mode.
enum class ServeMode : std::uint8_t {
  kPolicy = 0,           ///< any OnlinePolicy via per-object ObjectPolicy state
  kSlottedBatching = 2,  ///< native batching: one full stream per nonempty
                         ///< DG slot; all admission modes supported
};

/// One ServerCore run: catalogue x serving mode x channel budget.
struct ServerCoreConfig {
  Index objects = 1;            ///< catalogue size N
  double delay = 0.01;          ///< guaranteed start-up delay / slot duration
  double horizon = 100.0;       ///< served time span, in media lengths
  unsigned shards = 1;          ///< mailbox fan-out width (>= 1)
  ServeMode serve = ServeMode::kPolicy;
  Index channel_capacity = 0;   ///< channel budget; 0 = unbounded
  AdmissionMode admission = AdmissionMode::kObserve;
  Index max_defer_slots = 8;    ///< defer mode: slots probed before rejecting
  Index mailbox_capacity = 0;   ///< post() ring slots per shard, rounded up
                                ///< to a power of two; 0 = 65536. Results
                                ///< never depend on it (overflow spills,
                                ///< nothing drops), so checkpoints ignore
                                ///< it like the shard width.
  bool collect_stream_intervals = false;  ///< keep all intervals (O(streams))
  bool collect_plans = false;   ///< assemble per-object MergePlans (O(streams))

  // Session lifecycle (generic policy serving only). When enabled the
  // core takes `ingest_session_trace` instead of plain arrivals, tracks
  // live sessions, and repairs each object's plan in place at finish():
  // subtrees whose last viewer departed are truncated, seek-away
  // subtrees re-root, and every end move is folded through the channel
  // ledger as a retraction pair. Stream/admission recording is forced
  // on internally (plans are only exported when `collect_plans` is set).
  bool enable_sessions = false;
  plan::ChunkingConfig chunking;  ///< segment timeline for emitted plans
};

/// What a client receives back from `admit` (or `preview_admission`).
struct Ticket {
  bool admitted = false;
  Index object = 0;
  Index slot = -1;              ///< serving DG slot (slot-mapped admissions)
  double arrival = 0.0;
  double decision_time = 0.0;   ///< == arrival unless deferred/degraded
  double playback_start = 0.0;
  double wait = 0.0;            ///< playback_start - arrival
  double guarantee_wait = 0.0;  ///< playback_start - decision_time; the
                                ///< span the delay guarantee covers
  Index deferred_slots = 0;     ///< slots the admission was pushed back
  bool degraded = false;        ///< served by a later batch than promised
};

/// Per-object totals (index = object id). Field-compatible with the
/// legacy engine's per-object outcome.
struct ObjectOutcome {
  Index arrivals = 0;
  Index streams = 0;
  double cost = 0.0;           ///< transmitted media units (media length 1.0)
  double max_wait = 0.0;
  Index peak_concurrency = 0;  ///< this object's own channel peak
  Index violations = 0;        ///< clients whose wait exceeded the delay

  // Session lifecycle (zero unless enable_sessions).
  Index sessions = 0;          ///< sessions ingested for this object
  Index session_pauses = 0;
  Index session_seeks = 0;
  Index session_abandons = 0;
  Index plan_truncations = 0;  ///< stream ends pulled earlier by repair
  Index plan_reroots = 0;      ///< subtrees detached and re-rooted
  double retracted_cost = 0.0; ///< media units cancelled by repair
  double extended_cost = 0.0;  ///< media units added by re-roots

  friend bool operator==(const ObjectOutcome&, const ObjectOutcome&) = default;
};

/// A mid-run view of the core: O(log buckets) ledger queries plus the
/// wait histogram's percentiles — no sorting, no end-of-run barrier.
struct LiveStats {
  Index arrivals = 0;
  Index admitted = 0;
  Index rejected = 0;
  Index deferrals = 0;   ///< clients admitted after >= 1 deferred slot
  Index degraded = 0;
  Index streams = 0;
  double cost = 0.0;
  Index current_channels = 0;  ///< occupancy at the latest ingested time
  Index peak_channels = 0;
  util::DelayProfile wait;     ///< count/mean/max exact, percentiles estimated

  // Session lifecycle (zero unless enable_sessions).
  Index live_sessions = 0;     ///< playing (or paused) at the clock
  Index session_pauses = 0;    ///< resolved so far (drained sessions)
  Index session_seeks = 0;
  Index session_abandons = 0;
};

/// End-of-run totals (after `finish()`); `sim::EngineResult` is this
/// type.
struct Snapshot {
  Index total_arrivals = 0;
  Index total_streams = 0;
  double streams_served = 0.0;
  util::DelayProfile wait;     ///< exact nearest-rank percentiles
  Index peak_concurrency = 0;
  Index guarantee_violations = 0;
  Index capacity_violations = 0;  ///< observe-mode saturated starts
  Index rejected = 0;
  Index deferrals = 0;
  Index degraded = 0;

  // Session lifecycle totals (zero unless enable_sessions).
  Index total_sessions = 0;
  Index session_pauses = 0;
  Index session_seeks = 0;
  Index session_abandons = 0;
  Index plan_truncations = 0;
  Index plan_reroots = 0;
  double retracted_cost = 0.0;
  double extended_cost = 0.0;

  std::vector<ObjectOutcome> per_object;  ///< index = object id
  /// Every transmission interval sorted by start (ties keep object-id
  /// order), the input `assign_channels` needs; collected only.
  std::vector<StreamInterval> stream_intervals;
  /// Per-object canonical plans (index = object id, media length 1.0);
  /// collected only. Each passes `plan::verify` for the shipped
  /// policies.
  std::vector<plan::MergePlan> plans;
};

/// True when `wait` exceeds `delay` beyond floating-point slot-boundary
/// rounding — the single definition of a guarantee violation, shared by
/// the core, the engine, the benches and the tests.
[[nodiscard]] bool violates_guarantee(double wait, double delay) noexcept;

/// What `restore_state` hands back alongside the restored core state:
/// the recovery cursor (how many WAL records the checkpoint already
/// covers) and the driver's opaque extension payload (resume cursors,
/// chunk indices — whatever the driver stored at checkpoint time).
struct RestoreInfo {
  std::uint64_t wal_records = 0;
  std::vector<std::uint8_t> driver_blob;
};

/// The serving runtime. One driver thread calls everything except
/// `post()`, which any number of producer threads may call concurrently
/// (lock-free ring mailboxes); drain() parallelizes internally.
///
/// Memory: the core retains per-object events and waits for the whole
/// run — that is what makes exact-on-demand percentiles, per-object
/// peaks and the end-of-run snapshot possible, and it matches the
/// legacy engine's footprint (O(clients + streams)). An indefinitely
/// running deployment that only needs the O(1) live stats would want a
/// retention cap; today's drivers are all bounded-horizon runs.
class ServerCore {
 public:
  /// Generic-policy core (`ServeMode::kPolicy`): calls
  /// `policy.prepare(delay, horizon)` once, then builds per-object
  /// state. The policy must outlive the core. Throws
  /// std::invalid_argument on a bad config or an unsupported
  /// mode/serve combination.
  ServerCore(const ServerCoreConfig& config, OnlinePolicy& policy);

  /// Slotted-batching core (`kSlottedBatching`): self-contained, no
  /// external policy.
  explicit ServerCore(const ServerCoreConfig& config);

  ~ServerCore();
  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  // --- Ingest -------------------------------------------------------------

  /// Serial live path: decides this arrival now and returns its ticket.
  /// Arrivals must be nondecreasing per object (and, for the capacity
  /// modes, nondecreasing globally — admission order is decision
  /// order). O(1) amortized plus O(log buckets) when a channel-budget
  /// check runs.
  Ticket admit(Index object, double time);

  /// Batched path: appends a time-ordered trace for one object to the
  /// owning shard's mailbox (moved, O(1) when the object's mailbox is
  /// empty; no processing until `drain`). Generic-policy serving only.
  void ingest_trace(Index object, std::vector<double> times);

  /// Lock-free concurrent ingest: stamps the arrival with a per-shard
  /// ticket and publishes it to the owning shard's bounded MPSC ring
  /// (util/mpsc_ring.h); a full ring spills to a locked fallback
  /// vector, so no arrival is ever dropped. The ONLY member safe to
  /// call from other threads: any number of producers may post
  /// concurrently, including while the driver thread runs `drain()` —
  /// arrivals published before the drain claims the ring are folded in,
  /// later ones wait for the next drain. Each object must be fed by at
  /// most one producer at a time with nondecreasing times (the
  /// per-object policy contract; violations are detected at the next
  /// drain), and producers must quiesce before `finish()`,
  /// `checkpoint()` or any query. Do not mix `post` and `admit` on the
  /// same object without a `drain()` in between. Generic-policy,
  /// non-session serving only.
  void post(Index object, double time);

  /// Session-lifecycle ingest (`enable_sessions` only; plain
  /// ingest_trace then throws — a session core must know every
  /// client's lifecycle). Each trace is one client: its arrival feeds
  /// the policy exactly like a plain arrival (so the admission stream
  /// is unchanged), its events are resolved to wall times against the
  /// admitted playback at the next drain, and the plan repair they
  /// imply is applied at finish().
  void ingest_session_trace(Index object, std::vector<SessionTrace> sessions);

  /// Processes all mailboxes: each active shard claims its ring's
  /// published range in one step, restores per-object ticket order, and
  /// delivers the batch; shards with nothing pending never reach the
  /// pool. The epilogue then folds results in object-id order and
  /// fills the ledger with every new run in one `apply_runs` call
  /// (bucket-partitioned when the drain holds many events, in place
  /// when it holds few). Bit-identical for any shard count, thread
  /// count or drain cadence.
  void drain();

  /// Ends the run at the configured horizon: drains pending arrivals,
  /// lets every object's policy flush its fixed/late schedule, and
  /// finalizes per-object outcomes. Idempotent.
  void finish();

  // --- Live queries -------------------------------------------------------

  /// Callable mid-run (between drains / after any admit). Reflects only
  /// drained state, and every field it reads is written exclusively by
  /// the driver thread's drain/admit — so the *driver thread* may call
  /// it while producers are still post()ing (the network front end's
  /// stats surface does exactly that); arrivals still in the rings are
  /// simply not visible yet. Other threads must not call it.
  [[nodiscard]] LiveStats live_stats();
  /// Channels busy at time `t`.
  [[nodiscard]] Index current_channels(double t);
  /// Peak channels so far.
  [[nodiscard]] Index peak_channels();
  /// Wait distribution: `exact` selects the nearest-rank percentiles
  /// over all waits recorded so far (O(n)); otherwise returns the wait
  /// histogram's estimates (within util::WaitHistogram::kRelativeError
  /// of the exact ones), O(occupied bucket range).
  [[nodiscard]] util::DelayProfile wait_profile(bool exact);

  /// The configuration the core was built with.
  [[nodiscard]] const ServerCoreConfig& config() const noexcept { return config_; }

  /// A thread-safe admission preview: the Ticket a client arriving at
  /// `time` will receive, computed from construction-time slot
  /// arithmetic alone (dg_admission or slot_start(slot_of(t, D), D) —
  /// the closed-form mappings the policy's SlotKind names; a
  /// slotted-batching core admits by the DG slot mapping), without
  /// touching any mutable core state. Under a channel budget the preview is the admission made
  /// when the budget has room; refusals and deferrals are decided only
  /// by `admit`. For policies with no slot kind the playback/wait
  /// fields come back negative ("decided at the next drain") and only
  /// the admission itself is certified. This is what the network front
  /// end stamps TICKET replies from: any reactor thread may call it
  /// concurrently with post() and drain(). Throws on a bad object id or
  /// negative time.
  [[nodiscard]] Ticket preview_admission(Index object, double time) const;

  // --- Crash consistency --------------------------------------------------

  /// Serializes the core's complete state — configuration echo, running
  /// counters, the merged wait histogram, the channel ledger (each
  /// bucket's events in canonical order), and every object's recorder,
  /// mailbox, session log and policy state — into a checksummed
  /// `smerge-ckpt-v4` frame (restore refuses v1, v2 and v3 ones).
  /// Valid at any quiescent pre-finish point (between drains / admits).
  /// `wal_records` is the number of admission WAL records this state
  /// already covers (the replay cursor); `driver_blob` is an opaque
  /// extension the driver gets back verbatim from `restore_state`.
  [[nodiscard]] std::vector<std::uint8_t> checkpoint(
      std::uint64_t wal_records = 0,
      std::span<const std::uint8_t> driver_blob = {}) const;

  /// Restores state from a `checkpoint` frame into this freshly
  /// constructed core (nothing ingested yet; same config as the saved
  /// core except the shard width, which results never depend on).
  /// After it returns, every future ingest/drain/finish produces
  /// results bit-identical to the saved core's continuation. Throws
  /// util::SnapshotError on corruption, schema/config mismatch, or
  /// structurally inconsistent state; std::logic_error when this core
  /// already served traffic.
  RestoreInfo restore_state(std::span<const std::uint8_t> frame);

  /// Graceful degradation for recovery under capacity pressure: flips a
  /// reject/defer admission core to the degrade path (never refuse
  /// service; late batches count as guarantee violations instead).
  /// No-op in observe or degrade mode.
  void degrade_admissions() noexcept;

  // --- End of run ---------------------------------------------------------

  /// Totals after `finish()` (throws std::logic_error before it).
  /// Moves the collected intervals/plans out of the core.
  [[nodiscard]] Snapshot take_snapshot();

 private:
  struct ObjectState;
  struct Impl;

  void validate() const;
  void build_objects(OnlinePolicy* policy);
  void collect_posted(unsigned shard);
  Ticket admit_slotted(Index object, double time);
  Ticket admit_policy(Index object, double time);
  void process_object(ObjectState& state, util::WaitHistogram& waits);
  void resolve_sessions(ObjectState& state);
  void repair_object_plan(ObjectState& state);
  std::span<const ChannelEvent> fold_object(ObjectState& state);
  void exact_percentiles(util::DelayProfile& profile) const;
  void epilogue(std::span<const Index> objects);
  bool slot_stream_fits(double start, double duration);
  void start_slot_stream(ObjectState& state, Index slot, double start,
                         double duration, Index parent);

  ServerCoreConfig config_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace smerge::server

#endif  // SMERGE_SERVER_SERVER_CORE_H
