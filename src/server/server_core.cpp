#include "server/server_core.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/plan_io.h"
#include "core/slot_clock.h"
#include "util/mpsc_ring.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "util/snapshot.h"
#include "util/thread_pool.h"
#include "util/wait_histogram.h"

namespace smerge::server {

bool violates_guarantee(double wait, double delay) noexcept {
  // Absolute + relative slack: admissions sit on slot boundaries
  // computed in floating point, so an exact comparison against `delay`
  // would flag rounding, not policy bugs.
  return wait > delay * (1.0 + 1e-9) + 1e-12;
}

const char* to_string(AdmissionMode mode) noexcept {
  switch (mode) {
    case AdmissionMode::kObserve: return "observe";
    case AdmissionMode::kReject: return "reject";
    case AdmissionMode::kDefer: return "defer";
    case AdmissionMode::kDegrade: return "degrade";
  }
  return "?";
}

namespace {

std::size_t index_of(Index x) { return static_cast<std::size_t>(x); }

/// One arrival published through the lock-free post() path. `seq` is
/// the shard-wide ticket stamped at publication: ring and spill drains
/// each preserve per-producer order but may interleave, so the
/// collector re-sorts an object's batch by (time, seq) — which is
/// exactly the order its single producer posted in (times are
/// nondecreasing per object and the ticket breaks every tie).
struct PostedArrival {
  double time = 0.0;
  Index object = 0;
  std::uint64_t seq = 0;
};

bool posted_less(const PostedArrival& a, const PostedArrival& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

}  // namespace

/// Per-object serving state. Doubles as the object's PolicySink: the
/// recording semantics (validation, violation counting, plan assembly)
/// are the legacy engine ShardSink's — that is what keeps the
/// refactored engine bit-identical.
struct ServerCore::ObjectState final : PolicySink {
  ObjectState(Index id_, double delay_, bool collect_intervals_, bool collect_plan_,
              const plan::ChunkingConfig& chunking_)
      : id(id_),
        delay(delay_),
        collect_intervals(collect_intervals_),
        collect_plan(collect_plan_),
        chunking(chunking_) {}

  void start_stream(double start, double duration, Index parent) override {
    if (start < 0.0 || !(duration >= 0.0)) {
      throw std::invalid_argument(
          "server-core: policy emitted a bad stream interval");
    }
    if (parent < -1 || parent >= outcome.streams) {
      throw std::invalid_argument(
          "server-core: policy emitted a bad stream parent");
    }
    ++outcome.streams;
    outcome.cost += duration;
    // The +1/-1 pair stays adjacent: the incremental ledger flush walks
    // the vector two events at a time.
    events.push_back({start, +1});
    events.push_back({start + duration, -1});
    if (collect_intervals) intervals.push_back({start, start + duration});
    if (collect_plan) {
      stream_starts.push_back(start);
      stream_durations.push_back(duration);
      stream_parents.push_back(parent);
    }
  }

  void admit(double arrival, double playback_start) override {
    record_admission(arrival, playback_start, arrival);
  }

  void retract_stream(Index index, double new_end) override {
    if (index < 0 || index_of(index) >= stream_starts.size()) {
      throw std::out_of_range("server-core: retract_stream index");
    }
    const std::size_t u = index_of(index);
    const double new_duration = new_end - stream_starts[u];
    outcome.cost += new_duration - stream_durations[u];
    stream_durations[u] = new_duration;
    if (collect_intervals) intervals[u].end = new_end;
  }

  /// Records one admission; the guarantee is measured from `basis`
  /// (== arrival everywhere except the defer admission mode, which
  /// re-promises from the deferred slot).
  void record_admission(double arrival, double playback_start, double basis) {
    const double wait = playback_start - arrival;
    if (wait < 0.0) {
      throw std::invalid_argument("server-core: playback before arrival");
    }
    waits.push_back(wait);
    wait_sum += wait;
    if (wait > outcome.max_wait) outcome.max_wait = wait;
    if (violates_guarantee(playback_start - basis, delay)) ++outcome.violations;
    if (collect_plan) admissions.push_back({playback_start, wait});
    last_playback = playback_start;
  }

  /// Counts the waits recorded since the last tally into `into`.
  void tally_waits(util::WaitHistogram& into) {
    for (std::size_t i = flushed_waits; i < waits.size(); ++i) into.add(waits[i]);
    flushed_waits = waits.size();
  }

  /// Assembles the recorded schedule into the canonical IR: streams in
  /// emission order (the policies emit in start order), per-stream
  /// delays from the waits of the admissions each stream served.
  /// The stream whose start coincides with `playback` — the admission
  /// contract (both sides compute the identical slot/batch expression,
  /// so the match is exact; the tolerance absorbs nothing but future
  /// policies' rounding).
  [[nodiscard]] Index stream_for_playback(double playback) const {
    const auto it = std::lower_bound(stream_starts.begin(), stream_starts.end(),
                                     playback - 1e-9);
    if (it == stream_starts.end() || std::abs(*it - playback) > 1e-9) {
      throw std::logic_error(
          "server-core: admission playback start matches no emitted stream");
    }
    return static_cast<Index>(it - stream_starts.begin());
  }

  [[nodiscard]] plan::MergePlan build_plan() const {
    plan::PlanBuilder builder(1.0, Model::kReceiveTwo);
    if (chunking.enabled()) builder.set_chunking(chunking);
    for (std::size_t i = 0; i < stream_starts.size(); ++i) {
      builder.add_stream(stream_starts[i], stream_parents[i], stream_durations[i]);
    }
    for (const auto& [playback, wait] : admissions) {
      builder.record_wait(stream_for_playback(playback), wait);
    }
    return builder.build();
  }

  const Index id;
  const double delay;
  const bool collect_intervals;
  const bool collect_plan;
  const plan::ChunkingConfig chunking;

  std::unique_ptr<ObjectPolicy> policy;  ///< generic path only

  // Recorder (the legacy ShardSink fields).
  ObjectOutcome outcome;
  std::vector<ChannelEvent> events;  ///< emission order until finalized
  std::vector<StreamInterval> intervals;
  std::vector<double> waits;  ///< in admission order
  double wait_sum = 0.0;
  std::vector<double> stream_starts;     ///< collect_plans only
  std::vector<double> stream_durations;  ///< collect_plans only
  std::vector<Index> stream_parents;     ///< collect_plans only
  std::vector<std::pair<double, double>> admissions;  ///< (playback, wait)
  plan::MergePlan plan;

  // Mailbox + incremental-fold cursors.
  std::vector<double> pending;     ///< time-ordered, unprocessed arrivals
  std::vector<PostedArrival> posted_batch;  ///< this drain's post() claims
  std::size_t flushed_events = 0;  ///< events already in the global ledger
  std::size_t flushed_waits = 0;   ///< waits already in a wait histogram
  bool dirty = false;              ///< queued in its shard's dirty list

  // Session lifecycle (enable_sessions only). Sessions align 1:1 with
  // arrivals: session i is the client admitted i-th, so its playback
  // start is admissions[i] — which is how media positions resolve to
  // wall times at drain.
  struct PlanEvent {
    double wall = 0.0;      ///< resolved wall time of the event
    double playback = 0.0;  ///< the session's playback start
    Index session = -1;
    bool is_seek = false;   ///< else: abandon
  };
  std::vector<SessionTrace> sessions;     ///< arrival order
  std::size_t resolved_sessions = 0;      ///< prefix already wall-resolved
  std::vector<double> session_playbacks;  ///< nondecreasing (admission order)
  std::vector<double> session_ends;       ///< wall time each session stops
  bool session_ends_sorted = true;
  std::vector<PlanEvent> plan_events;     ///< abandons + seeks, resolution order
  std::vector<plan::StreamEdit> session_edits;  ///< finish()-time repair feed
  plan::RepairStats repair;

  // Serving state.
  double last_time = 0.0;     ///< monotonicity guard (ingest + admit)
  double last_playback = 0.0; ///< most recent admission (ticket assembly)
  std::vector<std::uint8_t> slot_has_stream;  ///< slotted batching
};

struct ServerCore::Impl {
  /// One shard's lock-free intake: the ring mailbox producers publish
  /// to (`box`, `ticket`), plus consumer-side scratch touched only by
  /// the shard's drain worker (one worker per shard per drain) or the
  /// driver's serial fold — never by producers.
  struct ShardMailbox {
    explicit ShardMailbox(std::size_t ring_slots) : box(ring_slots) {}

    util::MpscMailbox<PostedArrival> box;
    alignas(64) std::atomic<std::uint64_t> ticket{0};  ///< post order stamp
    std::vector<PostedArrival> scratch;  ///< one drain's claimed range
    std::vector<Index> touched;          ///< objects seen in the claim
    std::vector<double> keys;  ///< one object's batch times (sort check)
    /// Claimed arrivals whose ticket lies past a gap: arrivals with
    /// smaller tickets were still in flight in the ring when this
    /// pass's claim swept it, so these wait here (consumer-owned) for
    /// the pass that claims the gap.
    std::vector<PostedArrival> held;
    std::uint64_t next_seq = 0;  ///< next ticket the fold may consume
    Index collected = 0;    ///< arrivals claimed, awaiting the serial fold
    double max_time = 0.0;  ///< latest claimed arrival time
  };

  Impl(double span, double bucket, unsigned shards)
      : shard_waits(shards), ledger(span, bucket) {}

  std::vector<std::unique_ptr<ObjectState>> objects;
  std::vector<std::vector<Index>> shard_dirty;  ///< per-shard mailbox index
  /// Per-shard wait tallies of one drain's parallel phase, merged into
  /// `waits` (and emptied) by its epilogue.
  std::vector<util::WaitHistogram> shard_waits;
  std::vector<unsigned> active;  ///< drain scratch: shards with work
  std::vector<Index> dirty;      ///< drain scratch: merged dirty objects
  std::vector<ChannelLedger::Run> runs;  ///< epilogue scratch: fresh events
  std::vector<std::unique_ptr<ShardMailbox>> mailboxes;  ///< post() path only
  std::atomic<bool> posted_out_of_order{false};  ///< set by drain workers
  ChannelLedger ledger;

  // Running counters (updated in deterministic fold order).
  Index arrivals = 0;
  Index rejected = 0;
  Index deferrals = 0;
  Index degraded = 0;
  Index streams = 0;
  double cost = 0.0;
  double clock = 0.0;  ///< latest ingested/admitted time

  /// Every tallied wait, one per admitted client: live percentiles
  /// plus the exact count, mean and max. Merged counts are independent
  /// of shard width and drain cadence.
  util::WaitHistogram waits;

  OnlinePolicy* policy = nullptr;  ///< generic path only
  /// Slot arithmetic for preview_admission: the policy's advertised
  /// SlotKind (kDgSlot on a slotted-batching core), fixed at
  /// construction.
  SlotKind preview_kind = SlotKind::kNone;
  bool finished = false;
  Snapshot snapshot;  ///< assembled by finish()
};

ServerCore::~ServerCore() = default;

void ServerCore::validate() const {
  if (config_.objects < 1) {
    throw std::invalid_argument("ServerCore: objects must be >= 1");
  }
  if (config_.shards < 1) {
    throw std::invalid_argument("ServerCore: shards must be >= 1");
  }
  if (!(config_.delay > 0.0)) {
    throw std::invalid_argument("ServerCore: delay must be positive");
  }
  if (!(config_.horizon >= 0.0)) {
    throw std::invalid_argument("ServerCore: horizon must be nonnegative");
  }
  if (config_.channel_capacity < 0) {
    throw std::invalid_argument("ServerCore: channel_capacity must be >= 0");
  }
  if (config_.max_defer_slots < 0) {
    throw std::invalid_argument("ServerCore: max_defer_slots must be >= 0");
  }
  if (config_.mailbox_capacity < 0) {
    throw std::invalid_argument("ServerCore: mailbox_capacity must be >= 0");
  }
  plan::validate(config_.chunking, 1.0);
  if (config_.enable_sessions && config_.serve != ServeMode::kPolicy) {
    throw std::invalid_argument(
        "ServerCore: sessions require generic policy serving");
  }
  if (config_.admission != AdmissionMode::kObserve) {
    if (config_.serve != ServeMode::kSlottedBatching) {
      throw std::invalid_argument(
          "ServerCore: capacity admission modes require slotted batching "
          "serving (the stream an admission needs must be statically known)");
    }
    if (config_.channel_capacity < 1) {
      throw std::invalid_argument(
          "ServerCore: capacity admission modes require channel_capacity >= 1");
    }
  }
}

ServerCore::ServerCore(const ServerCoreConfig& config, OnlinePolicy& policy)
    : config_(config) {
  if (config_.serve != ServeMode::kPolicy) {
    throw std::invalid_argument(
        "ServerCore: the policy constructor requires ServeMode::kPolicy");
  }
  validate();
  policy.prepare(config_.delay, config_.horizon);
  build_objects(&policy);
}

ServerCore::ServerCore(const ServerCoreConfig& config) : config_(config) {
  if (config_.serve != ServeMode::kSlottedBatching) {
    throw std::invalid_argument(
        "ServerCore: the slotted constructor requires kSlottedBatching");
  }
  validate();
  build_objects(nullptr);
}

void ServerCore::build_objects(OnlinePolicy* policy) {
  const double bucket = config_.delay;  // one ledger bucket per slot
  // Streams can outlive the horizon by up to one media length plus the
  // defer slack; later times clamp into the ledger's final bucket,
  // which stays exact (only slower to scan). Open-ended cores
  // (horizon 0) get a 32-media floor so live queries keep their
  // bucketed complexity over a realistic served window instead of
  // piling everything into one overflow bucket.
  const double span =
      std::max(32.0, config_.horizon + 1.0) +
      config_.delay * static_cast<double>(config_.max_defer_slots + 2);
  impl_ = std::make_unique<Impl>(span, bucket, config_.shards);
  impl_->policy = policy;

  impl_->objects.reserve(index_of(config_.objects));
  for (Index m = 0; m < config_.objects; ++m) {
    // Sessions need the stream/admission record to resolve events and
    // repair plans, whether or not plans are exported to the snapshot.
    auto state = std::make_unique<ObjectState>(
        m, config_.delay, config_.collect_stream_intervals,
        config_.collect_plans || config_.enable_sessions, config_.chunking);
    if (policy != nullptr) {
      state->policy = policy->make_object_policy(config_.delay, config_.horizon);
    }
    impl_->objects.push_back(std::move(state));
  }
  // A slotted-batching core admits by the DG slot mapping (a stream at
  // each nonempty slot's end), so that is what it previews by.
  impl_->preview_kind = policy != nullptr
                            ? impl_->objects.front()->policy->slot_kind()
                            : SlotKind::kDgSlot;
  impl_->shard_dirty.resize(config_.shards);

  // Ring mailboxes exist only where post() is legal (generic-policy,
  // non-session serving); slotted and session cores never pay for them.
  if (config_.serve == ServeMode::kPolicy && !config_.enable_sessions) {
    const std::size_t ring_slots =
        config_.mailbox_capacity > 0
            ? static_cast<std::size_t>(config_.mailbox_capacity)
            : std::size_t{1} << 16;
    impl_->mailboxes.reserve(config_.shards);
    for (unsigned s = 0; s < config_.shards; ++s) {
      impl_->mailboxes.push_back(
          std::make_unique<Impl::ShardMailbox>(ring_slots));
    }
  }
}

// --- Incremental folding ----------------------------------------------------

std::span<const ChannelEvent> ServerCore::fold_object(ObjectState& state) {
  // Waits a drain's parallel phase did not tally (admit() and finish()
  // record them serially) go straight into the merged histogram.
  state.tally_waits(impl_->waits);
  // Cost accumulates per pair, in emission order, so the float fold
  // order (and thus every snapshot byte) never depends on how the
  // ledger is filled.
  const std::size_t from = state.flushed_events;
  for (std::size_t i = from; i + 1 < state.events.size(); i += 2) {
    const double start = state.events[i].time;
    const double end = state.events[i + 1].time;
    if (!(start >= 0.0) || !(end >= start)) {
      throw std::invalid_argument("ChannelLedger: bad interval");
    }
    impl_->cost += end - start;
    ++impl_->streams;
  }
  state.flushed_events = state.events.size();
  state.dirty = false;
  return std::span<const ChannelEvent>(state.events).subspan(from);
}

void ServerCore::epilogue(std::span<const Index> objects) {
  // The serial fold: object-id order, arrival order within an object —
  // never a function of the shard fan-out. The ledger fill is
  // order-free (its buckets and checkpoint bytes hold only canonical
  // content), so apply_runs may partition it by bucket range over the
  // pool; an admission's single stream it appends in place.
  std::vector<ChannelLedger::Run>& runs = impl_->runs;
  runs.clear();
  for (const Index m : objects) {
    ObjectState& state = *impl_->objects[index_of(m)];
    runs.push_back({state.id, fold_object(state)});
  }
  impl_->ledger.apply_runs(runs, util::ThreadPool::shared(), config_.shards);
}

void ServerCore::process_object(ObjectState& state, util::WaitHistogram& waits) {
  for (const double t : state.pending) state.policy->on_arrival(t, state);
  state.outcome.arrivals += static_cast<Index>(state.pending.size());
  // Large one-shot traces (ingest_trace) release their memory here;
  // small mailboxes keep their capacity for the next drain.
  if (state.pending.capacity() > 4096) {
    std::vector<double>().swap(state.pending);
  } else {
    state.pending.clear();
  }
  if (config_.enable_sessions) resolve_sessions(state);
  state.tally_waits(waits);
}

/// Resolves every newly admitted session's media-position events to
/// wall times by walking its playhead: wall advances with playback,
/// jumps over pauses, and restarts from seek targets. Events the
/// playhead already passed (a forward seek skipped them) are dropped;
/// nothing follows an abandon. Runs inside the parallel drain — it
/// touches only this object's state.
void ServerCore::resolve_sessions(ObjectState& state) {
  while (state.resolved_sessions < state.sessions.size() &&
         state.resolved_sessions < state.admissions.size()) {
    const std::size_t i = state.resolved_sessions++;
    const SessionTrace& trace = state.sessions[i];
    const double playback = state.admissions[i].first;
    ++state.outcome.sessions;
    double wall = playback;
    double pos = 0.0;
    bool departed = false;
    for (const SessionEvent& event : trace.events) {
      if (event.position < pos || event.position > 1.0) continue;
      wall += event.position - pos;
      pos = event.position;
      if (state.policy != nullptr) {
        state.policy->on_session_event(wall, trace.arrival, event, state);
      }
      switch (event.type) {
        case SessionEventType::kPause:
          wall += event.value;
          ++state.outcome.session_pauses;
          break;
        case SessionEventType::kSeek:
          ++state.outcome.session_seeks;
          state.plan_events.push_back(
              {wall, playback, static_cast<Index>(i), true});
          pos = event.value;
          break;
        case SessionEventType::kAbandon:
          ++state.outcome.session_abandons;
          state.plan_events.push_back(
              {wall, playback, static_cast<Index>(i), false});
          departed = true;
          break;
      }
      if (departed) break;
    }
    state.session_playbacks.push_back(playback);
    state.session_ends.push_back(departed ? wall : wall + (1.0 - pos));
    state.session_ends_sorted = false;
  }
}

/// Applies the object's churn to its assembled plan in place: each
/// abandon decrements its serving stream's live-session count and the
/// plan-level departure fires when the last viewer leaves; a seek
/// re-roots the serving subtree only when the seeker is its sole
/// viewer (a shared stream keeps serving the others). The edits feed
/// `retract_stream` (stream record + cost) here and finish()'s serial
/// repair fold into the ledger. Runs in the parallel finalization — it
/// touches only this object's state.
void ServerCore::repair_object_plan(ObjectState& state) {
  if (state.resolved_sessions != state.sessions.size()) {
    throw std::logic_error("server-core: unresolved sessions at finish");
  }
  if (state.plan_events.empty()) return;
  std::vector<Index> session_stream(state.resolved_sessions, -1);
  std::vector<Index> viewers(state.stream_starts.size(), 0);
  for (std::size_t i = 0; i < state.resolved_sessions; ++i) {
    const Index s = state.stream_for_playback(state.admissions[i].first);
    session_stream[i] = s;
    ++viewers[index_of(s)];
  }
  std::sort(state.plan_events.begin(), state.plan_events.end(),
            [](const ObjectState::PlanEvent& a, const ObjectState::PlanEvent& b) {
              if (a.wall != b.wall) return a.wall < b.wall;
              return a.session < b.session;
            });
  plan::SessionPlan session_plan(state.plan);
  for (const ObjectState::PlanEvent& event : state.plan_events) {
    const Index s = session_stream[index_of(event.session)];
    if (event.is_seek) {
      if (viewers[index_of(s)] == 1 && session_plan.active(s)) {
        session_plan.seek(s, event.wall);
      }
    } else if (--viewers[index_of(s)] == 0) {
      session_plan.abandon(s, event.wall);
    }
  }
  state.repair = session_plan.stats();
  state.session_edits.assign(session_plan.edits().begin(),
                             session_plan.edits().end());
  for (const plan::StreamEdit& edit : state.session_edits) {
    state.retract_stream(edit.stream, edit.new_end);
  }
  state.plan = session_plan.snapshot();
  state.outcome.plan_truncations += state.repair.truncations;
  state.outcome.plan_reroots += state.repair.reroots;
  state.outcome.retracted_cost += state.repair.retracted;
  state.outcome.extended_cost += state.repair.extended;
}

// --- Ingest -----------------------------------------------------------------

void ServerCore::ingest_trace(Index object, std::vector<double> times) {
  if (impl_->finished) throw std::logic_error("ServerCore: already finished");
  if (config_.serve != ServeMode::kPolicy) {
    throw std::invalid_argument(
        "ServerCore: ingest/drain serve the generic policy path; slotted "
        "modes use admit()");
  }
  if (config_.enable_sessions) {
    throw std::invalid_argument(
        "ServerCore: a session core must know every client's lifecycle — "
        "use ingest_session_trace");
  }
  if (object < 0 || object >= config_.objects) {
    throw std::out_of_range("ServerCore::ingest_trace: object out of range");
  }
  if (times.empty()) return;
  ObjectState& state = *impl_->objects[index_of(object)];
  const auto count = static_cast<Index>(times.size());
  double last = state.last_time;
  for (const double t : times) {
    if (t < 0.0 || t < last) {
      throw std::invalid_argument(
          "ServerCore::ingest_trace: arrivals must be nondecreasing per object");
    }
    last = t;
  }
  if (state.pending.empty()) {
    state.pending = std::move(times);
  } else {
    state.pending.insert(state.pending.end(), times.begin(), times.end());
  }
  state.last_time = last;
  if (last > impl_->clock) impl_->clock = last;
  impl_->arrivals += count;
  if (!state.dirty) {
    state.dirty = true;
    impl_->shard_dirty[index_of(object) % config_.shards].push_back(object);
  }
}

void ServerCore::post(Index object, double time) {
  // Producer-side fast path: everything read here is immutable after
  // construction (config, object count, mailbox array), everything
  // written is the lock-free ring. Monotonicity is validated where the
  // order is known — at collection, after the (time, seq) sort.
  if (impl_->mailboxes.empty()) {
    throw std::invalid_argument(
        "ServerCore::post: generic-policy, non-session serving only");
  }
  if (impl_->finished) {
    throw std::logic_error("ServerCore: already finished");
  }
  if (object < 0 || object >= config_.objects) {
    throw std::out_of_range("ServerCore::post: object out of range");
  }
  if (!(time >= 0.0)) {
    throw std::invalid_argument("ServerCore::post: negative arrival time");
  }
  Impl::ShardMailbox& mb =
      *impl_->mailboxes[index_of(object) % config_.shards];
  const std::uint64_t seq = mb.ticket.fetch_add(1, std::memory_order_relaxed);
  mb.box.push({time, object, seq});
}

/// Claims shard `s`'s published ring range in one step and folds it
/// into the per-object pending mailboxes: scatter by object, restore
/// each object's (time, seq) post order, validate monotonicity against
/// what the object already served, append. Runs on the shard's drain
/// worker; touches only shard-owned state (plus per-object state this
/// shard owns), so workers never contend.
void ServerCore::collect_posted(unsigned s) {
  Impl::ShardMailbox& mb = *impl_->mailboxes[s];
  mb.scratch.clear();
  mb.box.drain(mb.scratch);
  // Rejoin arrivals a previous pass held back behind a ticket gap.
  if (!mb.held.empty()) {
    mb.scratch.insert(mb.scratch.end(), mb.held.begin(), mb.held.end());
    mb.held.clear();
  }
  if (mb.scratch.empty()) return;
  // The claim is seq-sorted runs (ring, then spill, then the held
  // leftovers); restore shard-wide ticket order.
  const auto seq_less = [](const PostedArrival& a,
                           const PostedArrival& b) noexcept {
    return a.seq < b.seq;
  };
  if (!std::is_sorted(mb.scratch.begin(), mb.scratch.end(), seq_less)) {
    std::sort(mb.scratch.begin(), mb.scratch.end(), seq_less);
  }
  // Fold only the contiguous ticket prefix. The ring sweep stops at the
  // first claimed-but-unpublished slot, and the producer may publish it
  // and spill newer arrivals before this same pass claims the spill —
  // so one claim can contain a later arrival while an earlier one (of
  // the same object) still sits in the ring. Folding past the gap would
  // deliver those out of order; post-gap arrivals wait in `held` for
  // the pass that claims the gap.
  std::size_t fold = 0;
  while (fold < mb.scratch.size() &&
         mb.scratch[fold].seq == mb.next_seq + fold) {
    ++fold;
  }
  if (fold < mb.scratch.size()) {
    mb.held.assign(mb.scratch.begin() + static_cast<std::ptrdiff_t>(fold),
                   mb.scratch.end());
    mb.scratch.resize(fold);
  }
  mb.next_seq += fold;
  if (mb.scratch.empty()) return;
  mb.touched.clear();
  for (const PostedArrival& a : mb.scratch) {
    ObjectState& state = *impl_->objects[index_of(a.object)];
    if (state.posted_batch.empty()) mb.touched.push_back(a.object);
    state.posted_batch.push_back(a);
  }
  std::vector<double>& keys = mb.keys;
  // Object-id order keeps the dirty-list append order (and therefore a
  // restored core's rebuilt lists) independent of ring interleaving.
  std::sort(mb.touched.begin(), mb.touched.end());
  for (const Index m : mb.touched) {
    ObjectState& state = *impl_->objects[index_of(m)];
    std::vector<PostedArrival>& batch = state.posted_batch;
    // Strictly increasing times mean the batch is already in (time,
    // seq) order with no tie that needs the ticket — the common
    // single-producer case, checked by the lane-parallel kernel. Only
    // on ties/reordering does the scalar comparator (and maybe the
    // sort) run.
    keys.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) keys[i] = batch[i].time;
    if (!util::simd::strictly_increasing(keys.data(), keys.size()) &&
        !std::is_sorted(batch.begin(), batch.end(), posted_less)) {
      std::sort(batch.begin(), batch.end(), posted_less);
    }
    if (batch.front().time < state.last_time) {
      impl_->posted_out_of_order.store(true, std::memory_order_relaxed);
      batch.clear();
      continue;
    }
    state.pending.reserve(state.pending.size() + batch.size());
    for (const PostedArrival& a : batch) state.pending.push_back(a.time);
    state.last_time = batch.back().time;
    if (batch.back().time > mb.max_time) mb.max_time = batch.back().time;
    mb.collected += static_cast<Index>(batch.size());
    batch.clear();
    if (!state.dirty) {
      state.dirty = true;
      impl_->shard_dirty[s].push_back(m);
    }
  }
}

void ServerCore::ingest_session_trace(Index object,
                                      std::vector<SessionTrace> sessions) {
  if (impl_->finished) throw std::logic_error("ServerCore: already finished");
  if (!config_.enable_sessions) {
    throw std::invalid_argument(
        "ServerCore::ingest_session_trace: enable_sessions is off");
  }
  if (object < 0 || object >= config_.objects) {
    throw std::out_of_range("ServerCore::ingest_session_trace: object");
  }
  if (sessions.empty()) return;
  ObjectState& state = *impl_->objects[index_of(object)];
  double last = state.last_time;
  for (const SessionTrace& session : sessions) {
    if (session.arrival < 0.0 || session.arrival < last) {
      throw std::invalid_argument(
          "ServerCore::ingest_session_trace: arrivals must be nondecreasing "
          "per object");
    }
    last = session.arrival;
  }
  const auto count = static_cast<Index>(sessions.size());
  state.pending.reserve(state.pending.size() + sessions.size());
  state.sessions.reserve(state.sessions.size() + sessions.size());
  for (SessionTrace& session : sessions) {
    state.pending.push_back(session.arrival);
    state.sessions.push_back(std::move(session));
  }
  state.last_time = last;
  if (last > impl_->clock) impl_->clock = last;
  impl_->arrivals += count;
  if (!state.dirty) {
    state.dirty = true;
    impl_->shard_dirty[index_of(object) % config_.shards].push_back(object);
  }
}

void ServerCore::drain() {
  if (impl_->finished) return;
  // Active-shard gather: a shard reaches the pool only when it has
  // dirty objects or published posts, so idle-catalogue drains cost one
  // scan instead of a full pool fan-out.
  const bool posted = !impl_->mailboxes.empty();
  std::vector<unsigned>& active = impl_->active;
  active.clear();
  for (unsigned s = 0; s < config_.shards; ++s) {
    if (!impl_->shard_dirty[s].empty() ||
        (posted && (impl_->mailboxes[s]->box.has_items() ||
                    !impl_->mailboxes[s]->held.empty()))) {
      active.push_back(s);
    }
  }
  if (active.empty()) return;
  const auto drain_shard = [&](unsigned s) {
    if (posted) collect_posted(s);
    for (const Index m : impl_->shard_dirty[s]) {
      process_object(*impl_->objects[index_of(m)], impl_->shard_waits[s]);
    }
  };
  util::parallel_for(
      0, static_cast<std::int64_t>(active.size()),
      [&](std::int64_t i) { drain_shard(active[static_cast<std::size_t>(i)]); },
      config_.shards);
  // Integer merges: the histogram is the same in any shard order.
  for (const unsigned s : active) {
    impl_->waits.merge(impl_->shard_waits[s]);
    impl_->shard_waits[s].clear();
  }
  if (posted) {
    if (impl_->posted_out_of_order.load(std::memory_order_relaxed)) {
      impl_->posted_out_of_order.store(false, std::memory_order_relaxed);
      throw std::invalid_argument(
          "ServerCore::post: arrivals must be nondecreasing per object");
    }
    // Serial fold of the claimed counts, shard order — the same totals
    // the serial ingest paths maintain per call.
    for (const auto& mb_ptr : impl_->mailboxes) {
      Impl::ShardMailbox& mb = *mb_ptr;
      impl_->arrivals += mb.collected;
      if (mb.max_time > impl_->clock) impl_->clock = mb.max_time;
      mb.collected = 0;
      mb.max_time = 0.0;
    }
  }
  std::vector<Index>& dirty = impl_->dirty;
  dirty.clear();
  for (auto& list : impl_->shard_dirty) {
    dirty.insert(dirty.end(), list.begin(), list.end());
    list.clear();
  }
  std::sort(dirty.begin(), dirty.end());
  epilogue({dirty.data(), dirty.size()});
}

// --- The serial live path ---------------------------------------------------

Ticket ServerCore::admit(Index object, double time) {
  if (impl_->finished) throw std::logic_error("ServerCore: already finished");
  if (object < 0 || object >= config_.objects) {
    throw std::out_of_range("ServerCore::admit: object out of range");
  }
  if (time < 0.0) {
    throw std::invalid_argument("ServerCore::admit: negative arrival time");
  }
  if (config_.enable_sessions) {
    throw std::invalid_argument(
        "ServerCore: a session core must know every client's lifecycle — "
        "use ingest_session_trace");
  }
  ObjectState& state = *impl_->objects[index_of(object)];
  if (time < state.last_time) {
    throw std::invalid_argument("ServerCore::admit: arrivals must be sorted");
  }
  state.last_time = time;
  if (time > impl_->clock) impl_->clock = time;
  ++impl_->arrivals;
  ++state.outcome.arrivals;
  return config_.serve == ServeMode::kPolicy ? admit_policy(object, time)
                                             : admit_slotted(object, time);
}

Ticket ServerCore::admit_policy(Index object, double time) {
  ObjectState& state = *impl_->objects[index_of(object)];
  // Preserve per-object time order if the driver mixed in mailbox
  // arrivals for this object.
  if (!state.pending.empty()) process_object(state, impl_->waits);
  state.policy->on_arrival(time, state);
  epilogue({&object, 1});

  Ticket ticket;
  ticket.admitted = true;
  ticket.object = object;
  ticket.arrival = time;
  ticket.decision_time = time;
  ticket.playback_start = state.last_playback;
  ticket.wait = state.last_playback - time;
  ticket.guarantee_wait = ticket.wait;
  return ticket;
}

bool ServerCore::slot_stream_fits(double start, double duration) {
  if (config_.channel_capacity < 1) return true;
  return impl_->ledger.max_over(start, start + duration) + 1 <=
         config_.channel_capacity;
}

void ServerCore::start_slot_stream(ObjectState& state, Index slot, double start,
                                   double duration, Index parent) {
  state.start_stream(start, duration, parent);
  if (slot >= 0) {
    if (state.slot_has_stream.size() <= index_of(slot)) {
      state.slot_has_stream.resize(index_of(slot) + 1, 0);
    }
    state.slot_has_stream[index_of(slot)] = 1;
  }
}

Ticket ServerCore::admit_slotted(Index object, double time) {
  ObjectState& state = *impl_->objects[index_of(object)];
  const double delay = config_.delay;
  const Index slot = dg_admission(time, delay).slot;

  Ticket ticket;
  ticket.object = object;
  ticket.arrival = time;
  ticket.decision_time = time;
  ticket.slot = slot;

  // One full stream at the end of each nonempty DG slot; the channel
  // budget is checked before the client is accepted.
  const auto slot_covered = [&](Index s) {
    return index_of(s) < state.slot_has_stream.size() &&
           state.slot_has_stream[index_of(s)] != 0;
  };

  Index serve_slot = slot;
  bool fits = slot_covered(slot) ||
              config_.admission == AdmissionMode::kObserve ||
              slot_stream_fits(slot_start(slot + 1, delay), 1.0);
  if (!fits) {
    switch (config_.admission) {
      case AdmissionMode::kObserve:
        break;  // unreachable: observe always fits
      case AdmissionMode::kReject:
        ++impl_->rejected;
        return ticket;  // admitted == false
      case AdmissionMode::kDefer: {
        for (Index k = 1; k <= config_.max_defer_slots && !fits; ++k) {
          serve_slot = slot + k;
          fits = slot_covered(serve_slot) ||
                 slot_stream_fits(slot_start(serve_slot + 1, delay), 1.0);
        }
        if (!fits) {
          ++impl_->rejected;
          return ticket;
        }
        ticket.deferred_slots = serve_slot - slot;
        // The guarantee re-runs from the deferred slot's start; the
        // queueing time stays visible in `wait`.
        ticket.decision_time = slot_start(serve_slot, delay);
        ++impl_->deferrals;
        break;
      }
      case AdmissionMode::kDegrade: {
        // Never reject: coalesce into the first batch that fits. The
        // probe terminates because every committed stream eventually
        // ends, after which the windowed max is 0 and any slot fits.
        while (!fits) {
          ++serve_slot;
          fits = slot_covered(serve_slot) ||
                 slot_stream_fits(slot_start(serve_slot + 1, delay), 1.0);
        }
        ticket.deferred_slots = serve_slot - slot;
        ticket.degraded = true;
        ++impl_->degraded;
        break;
      }
    }
  }

  if (!slot_covered(serve_slot)) {
    start_slot_stream(state, serve_slot, slot_start(serve_slot + 1, delay), 1.0, -1);
  }
  const DgAdmission served = dg_admission(time, delay, serve_slot);
  ticket.admitted = true;
  ticket.playback_start = served.start;
  ticket.wait = served.wait;
  ticket.guarantee_wait =
      dg_admission(ticket.decision_time, delay, serve_slot).wait;
  state.record_admission(time, ticket.playback_start, ticket.decision_time);
  epilogue({&object, 1});
  return ticket;
}

// --- End of run -------------------------------------------------------------

void ServerCore::finish() {
  if (impl_->finished) return;
  drain();
  for (const auto& mb : impl_->mailboxes) {
    if (mb->box.has_items() || !mb->held.empty()) {
      throw std::logic_error(
          "ServerCore::finish: producers still posting — quiesce them first");
    }
  }

  const auto n = static_cast<std::int64_t>(config_.objects);
  if (config_.serve == ServeMode::kPolicy) {
    // Horizon flush: fixed schedules (DG) and late-resolving
    // truncations (the greedy merger) emit here. Objects are
    // independent, so the flush fans out over the pool.
    util::parallel_for(
        0, n,
        [&](std::int64_t m) {
          ObjectState& state = *impl_->objects[static_cast<std::size_t>(m)];
          state.policy->finish(config_.horizon, state);
        },
        config_.shards);
  }

  // The drain's epilogue over every object: the horizon flush's
  // streams and waits.
  std::vector<Index>& all = impl_->dirty;
  all.resize(index_of(config_.objects));
  std::iota(all.begin(), all.end(), Index{0});
  epilogue(all);

  // Per-object finalization: the object's own channel peak (sorts its
  // events — safe now, the ledger has its own copy), the canonical
  // plan, and the interval ordering. Parallel: objects are independent.
  util::parallel_for(
      0, n,
      [&](std::int64_t m) {
        ObjectState& state = *impl_->objects[static_cast<std::size_t>(m)];
        if (state.collect_plan) state.plan = state.build_plan();
        if (config_.enable_sessions) {
          repair_object_plan(state);
          // The object's own peak reflects the repaired stream ends.
          std::vector<ChannelEvent> repaired;
          repaired.reserve(2 * state.stream_starts.size());
          for (std::size_t i = 0; i < state.stream_starts.size(); ++i) {
            repaired.push_back({state.stream_starts[i], +1});
            repaired.push_back(
                {state.stream_starts[i] + state.stream_durations[i], -1});
          }
          state.outcome.peak_concurrency = peak_overlap(repaired);
        } else {
          state.outcome.peak_concurrency = peak_overlap(state.events);
        }
        std::stable_sort(state.intervals.begin(), state.intervals.end(),
                         [](const StreamInterval& a, const StreamInterval& b) {
                           return a.start < b.start;
                         });
      },
      config_.shards);

  // Fold the repairs through the global ledger: serial, object-id
  // order, edit order within an object — never a function of the shard
  // fan-out, exactly like the epilogue. Retraction pairs keep the
  // ledger append-only; occupancy and capacity accounting from here on
  // see the repaired schedule.
  if (config_.enable_sessions) {
    for (const auto& state : impl_->objects) {
      for (const plan::StreamEdit& edit : state->session_edits) {
        impl_->ledger.move_end(edit.old_end, edit.new_end, state->id);
        impl_->cost += edit.new_end - edit.old_end;
      }
    }
  }

  // The deterministic serial reduction, in object order — the legacy
  // engine's fold, with the k-way event merge replaced by the ledger.
  Snapshot& snap = impl_->snapshot;
  snap.per_object.reserve(index_of(config_.objects));
  std::size_t total_waits = 0;
  for (const auto& state : impl_->objects) {
    snap.total_arrivals += state->outcome.arrivals;
    snap.total_streams += state->outcome.streams;
    snap.streams_served += state->outcome.cost;
    snap.guarantee_violations += state->outcome.violations;
    snap.total_sessions += state->outcome.sessions;
    snap.session_pauses += state->outcome.session_pauses;
    snap.session_seeks += state->outcome.session_seeks;
    snap.session_abandons += state->outcome.session_abandons;
    snap.plan_truncations += state->outcome.plan_truncations;
    snap.plan_reroots += state->outcome.plan_reroots;
    snap.retracted_cost += state->outcome.retracted_cost;
    snap.extended_cost += state->outcome.extended_cost;
    if (state->outcome.max_wait > snap.wait.max) {
      snap.wait.max = state->outcome.max_wait;
    }
    snap.per_object.push_back(state->outcome);
    total_waits += state->waits.size();
  }
  snap.peak_concurrency = impl_->ledger.peak();
  if (config_.channel_capacity > 0) {
    snap.capacity_violations =
        impl_->ledger.capacity_violations(config_.channel_capacity);
  }
  snap.rejected = impl_->rejected;
  snap.deferrals = impl_->deferrals;
  snap.degraded = impl_->degraded;

  if (config_.collect_stream_intervals) {
    snap.stream_intervals.reserve(static_cast<std::size_t>(snap.total_streams));
    for (const auto& state : impl_->objects) {
      snap.stream_intervals.insert(snap.stream_intervals.end(),
                                   state->intervals.begin(),
                                   state->intervals.end());
    }
    std::stable_sort(snap.stream_intervals.begin(), snap.stream_intervals.end(),
                     [](const StreamInterval& a, const StreamInterval& b) {
                       return a.start < b.start;
                     });
  }
  if (config_.collect_plans) {
    snap.plans.reserve(impl_->objects.size());
    for (auto& state : impl_->objects) snap.plans.push_back(std::move(state->plan));
  }

  if (total_waits > 0) {
    double wait_sum = 0.0;
    for (const auto& state : impl_->objects) wait_sum += state->wait_sum;
    snap.wait.mean = wait_sum / static_cast<double>(total_waits);
    exact_percentiles(snap.wait);
  }
  impl_->finished = true;
}

Snapshot ServerCore::take_snapshot() {
  if (!impl_->finished) {
    throw std::logic_error("ServerCore::take_snapshot: call finish() first");
  }
  return std::move(impl_->snapshot);
}

// --- Live queries -----------------------------------------------------------

LiveStats ServerCore::live_stats() {
  LiveStats stats;
  stats.arrivals = impl_->arrivals;
  stats.admitted = impl_->waits.count();
  stats.rejected = impl_->rejected;
  stats.deferrals = impl_->deferrals;
  stats.degraded = impl_->degraded;
  stats.streams = impl_->streams;
  stats.cost = impl_->cost;
  stats.current_channels = impl_->ledger.occupancy_at(impl_->clock);
  stats.peak_channels = impl_->ledger.peak();
  stats.wait = wait_profile(/*exact=*/false);
  if (config_.enable_sessions) {
    const double now = impl_->clock;
    for (auto& state : impl_->objects) {
      stats.session_pauses += state->outcome.session_pauses;
      stats.session_seeks += state->outcome.session_seeks;
      stats.session_abandons += state->outcome.session_abandons;
      if (!state->session_ends_sorted) {
        std::sort(state->session_ends.begin(), state->session_ends.end());
        state->session_ends_sorted = true;
      }
      // Playbacks are nondecreasing (admission order), ends sorted just
      // above: live = started-by-now minus ended-by-now.
      const auto started =
          std::upper_bound(state->session_playbacks.begin(),
                           state->session_playbacks.end(), now) -
          state->session_playbacks.begin();
      const auto ended = std::upper_bound(state->session_ends.begin(),
                                          state->session_ends.end(), now) -
                         state->session_ends.begin();
      stats.live_sessions += static_cast<Index>(started - ended);
    }
  }
  return stats;
}

Index ServerCore::current_channels(double t) {
  return impl_->ledger.occupancy_at(t);
}

Index ServerCore::peak_channels() { return impl_->ledger.peak(); }

util::DelayProfile ServerCore::wait_profile(bool exact) {
  util::DelayProfile profile = impl_->waits.profile();
  if (exact && impl_->waits.count() > 0) exact_percentiles(profile);
  return profile;
}

void ServerCore::exact_percentiles(util::DelayProfile& profile) const {
  std::vector<std::span<const double>> waits;
  waits.reserve(impl_->objects.size());
  for (const auto& state : impl_->objects) {
    waits.emplace_back(state->waits.data(), state->flushed_waits);
  }
  static constexpr double kRanks[] = {0.50, 0.95, 0.99};
  const std::vector<double> q =
      util::nearest_rank_quantiles(waits, kRanks, util::ThreadPool::shared(),
                                   config_.shards);
  profile.p50 = q[0];
  profile.p95 = q[1];
  profile.p99 = q[2];
}

// --- Crash consistency ------------------------------------------------------

namespace {

constexpr std::string_view kCheckpointSchema = "smerge-ckpt-v4";

void save_config(util::SnapshotWriter& w, const ServerCoreConfig& c) {
  w.i64(c.objects);
  w.f64(c.delay);
  w.f64(c.horizon);
  w.u64(c.shards);
  w.u8(static_cast<std::uint8_t>(c.serve));
  w.i64(c.channel_capacity);
  w.u8(static_cast<std::uint8_t>(c.admission));
  w.i64(c.max_defer_slots);
  w.boolean(c.collect_stream_intervals);
  w.boolean(c.collect_plans);
  w.boolean(c.enable_sessions);
  w.f64(c.chunking.base);
  w.f64(c.chunking.growth);
  w.f64(c.chunking.cap);
  w.i64(c.chunking.min_start_chunks);
}

/// Validates the checkpoint's config echo against the live config.
/// Shards (and the admission mode, which degrade_admissions may have
/// flipped on the *saved* core) must still agree: results are
/// shard-invariant but the per-shard dirty lists are rebuilt, so only
/// the fan-out width itself may differ.
void check_config(util::SnapshotReader& r, const ServerCoreConfig& c) {
  const auto mismatch = [](const char* field) {
    throw util::SnapshotError(std::string("checkpoint: config mismatch: ") +
                              field);
  };
  if (r.i64() != c.objects) mismatch("objects");
  if (r.f64() != c.delay) mismatch("delay");
  if (r.f64() != c.horizon) mismatch("horizon");
  (void)r.u64();  // shards: restore is shard-width independent
  if (r.u8() != static_cast<std::uint8_t>(c.serve)) mismatch("serve");
  if (r.i64() != c.channel_capacity) mismatch("channel_capacity");
  if (r.u8() != static_cast<std::uint8_t>(c.admission)) mismatch("admission");
  if (r.i64() != c.max_defer_slots) mismatch("max_defer_slots");
  if (r.boolean() != c.collect_stream_intervals) {
    mismatch("collect_stream_intervals");
  }
  if (r.boolean() != c.collect_plans) mismatch("collect_plans");
  if (r.boolean() != c.enable_sessions) mismatch("enable_sessions");
  if (r.f64() != c.chunking.base) mismatch("chunking.base");
  if (r.f64() != c.chunking.growth) mismatch("chunking.growth");
  if (r.f64() != c.chunking.cap) mismatch("chunking.cap");
  if (r.i64() != c.chunking.min_start_chunks) {
    mismatch("chunking.min_start_chunks");
  }
}

}  // namespace

std::vector<std::uint8_t> ServerCore::checkpoint(
    std::uint64_t wal_records, std::span<const std::uint8_t> driver_blob) const {
  if (impl_->finished) {
    throw std::logic_error("ServerCore::checkpoint: core already finished");
  }
  // Posted-but-undrained arrivals live only in the rings, which are not
  // serialized (mailbox geometry, like the shard width, is a knob
  // results never depend on) — losing them silently would break the
  // continuation, so demand a drain first.
  for (const auto& mb : impl_->mailboxes) {
    if (mb->box.has_items() || !mb->held.empty()) {
      throw std::logic_error(
          "ServerCore::checkpoint: posted arrivals pending — drain() first");
    }
  }
  util::SnapshotWriter w;
  save_config(w, config_);
  w.u64(wal_records);
  w.blob(driver_blob);

  w.i64(impl_->arrivals);
  w.i64(impl_->rejected);
  w.i64(impl_->deferrals);
  w.i64(impl_->degraded);
  w.i64(impl_->streams);
  w.f64(impl_->cost);
  w.f64(impl_->clock);
  impl_->waits.save(w);
  impl_->ledger.save(w);

  w.u64(impl_->objects.size());
  for (const auto& state_ptr : impl_->objects) {
    const ObjectState& s = *state_ptr;
    w.i64(s.outcome.arrivals);
    w.i64(s.outcome.streams);
    w.f64(s.outcome.cost);
    w.f64(s.outcome.max_wait);
    w.i64(s.outcome.peak_concurrency);
    w.i64(s.outcome.violations);
    w.i64(s.outcome.sessions);
    w.i64(s.outcome.session_pauses);
    w.i64(s.outcome.session_seeks);
    w.i64(s.outcome.session_abandons);
    w.i64(s.outcome.plan_truncations);
    w.i64(s.outcome.plan_reroots);
    w.f64(s.outcome.retracted_cost);
    w.f64(s.outcome.extended_cost);

    w.u64(s.events.size());
    for (const ChannelEvent& e : s.events) {
      w.f64(e.time);
      w.i64(e.delta);
    }
    w.u64(s.intervals.size());
    for (const StreamInterval& iv : s.intervals) {
      w.f64(iv.start);
      w.f64(iv.end);
    }
    w.f64_vec(s.waits);
    w.f64(s.wait_sum);
    w.f64_vec(s.stream_starts);
    w.f64_vec(s.stream_durations);
    w.i64_vec(s.stream_parents);
    w.u64(s.admissions.size());
    for (const auto& [playback, wait] : s.admissions) {
      w.f64(playback);
      w.f64(wait);
    }
    plan::save_plan(w, s.plan);
    w.f64_vec(s.pending);
    w.u64(s.flushed_events);
    w.u64(s.flushed_waits);
    w.boolean(s.dirty);

    plan::save_session_traces(w, s.sessions);
    w.u64(s.resolved_sessions);
    w.f64_vec(s.session_playbacks);
    w.f64_vec(s.session_ends);
    w.boolean(s.session_ends_sorted);
    w.u64(s.plan_events.size());
    for (const ObjectState::PlanEvent& e : s.plan_events) {
      w.f64(e.wall);
      w.f64(e.playback);
      w.i64(e.session);
      w.boolean(e.is_seek);
    }
    plan::save_edits(w, s.session_edits);
    plan::save_repair_stats(w, s.repair);

    w.f64(s.last_time);
    w.f64(s.last_playback);
    w.u64(s.slot_has_stream.size());
    for (const std::uint8_t b : s.slot_has_stream) w.u8(b);

    util::SnapshotWriter policy_state;
    if (s.policy != nullptr) s.policy->save_state(policy_state);
    w.blob(policy_state.payload());
  }
  return w.frame(kCheckpointSchema);
}

RestoreInfo ServerCore::restore_state(std::span<const std::uint8_t> frame) {
  if (impl_->finished || impl_->arrivals != 0 || impl_->streams != 0) {
    throw std::logic_error(
        "ServerCore::restore_state: requires a freshly constructed core");
  }
  util::SnapshotReader r = util::SnapshotReader::open(frame, kCheckpointSchema);
  check_config(r, config_);
  RestoreInfo info;
  info.wal_records = r.u64();
  const auto blob = r.blob();
  info.driver_blob.assign(blob.begin(), blob.end());

  impl_->arrivals = r.i64();
  impl_->rejected = r.i64();
  impl_->deferrals = r.i64();
  impl_->degraded = r.i64();
  impl_->streams = r.i64();
  impl_->cost = r.f64();
  impl_->clock = r.f64();
  impl_->waits = util::WaitHistogram::load(r);
  impl_->ledger.restore(r);

  const std::uint64_t object_count = r.u64();
  if (object_count != impl_->objects.size()) {
    throw util::SnapshotError("checkpoint: object count mismatch");
  }
  for (auto& state_ptr : impl_->objects) {
    ObjectState& s = *state_ptr;
    s.outcome.arrivals = r.i64();
    s.outcome.streams = r.i64();
    s.outcome.cost = r.f64();
    s.outcome.max_wait = r.f64();
    s.outcome.peak_concurrency = r.i64();
    s.outcome.violations = r.i64();
    s.outcome.sessions = r.i64();
    s.outcome.session_pauses = r.i64();
    s.outcome.session_seeks = r.i64();
    s.outcome.session_abandons = r.i64();
    s.outcome.plan_truncations = r.i64();
    s.outcome.plan_reroots = r.i64();
    s.outcome.retracted_cost = r.f64();
    s.outcome.extended_cost = r.f64();

    const std::uint64_t event_count = r.u64();
    if (event_count > r.remaining() / 16) {
      throw util::SnapshotError("checkpoint: event count exceeds remaining");
    }
    // fold_object and the ledger fill read the recorder as (+1 start,
    // -1 end) pairs; anything else would corrupt cost and peak.
    if (event_count % 2 != 0) {
      throw util::SnapshotError("checkpoint: unpaired stream event");
    }
    s.events.resize(static_cast<std::size_t>(event_count));
    for (std::size_t i = 0; i < s.events.size(); ++i) {
      s.events[i].time = r.f64();
      const std::int64_t delta = r.i64();
      if (delta != (i % 2 == 0 ? 1 : -1)) {
        throw util::SnapshotError(
            "checkpoint: stream event delta is not a (+1, -1) pair");
      }
      s.events[i].delta = static_cast<int>(delta);
    }
    const std::uint64_t interval_count = r.u64();
    if (interval_count > r.remaining() / 16) {
      throw util::SnapshotError("checkpoint: interval count exceeds remaining");
    }
    s.intervals.resize(static_cast<std::size_t>(interval_count));
    for (StreamInterval& iv : s.intervals) {
      iv.start = r.f64();
      iv.end = r.f64();
    }
    s.waits = r.f64_vec();
    s.wait_sum = r.f64();
    s.stream_starts = r.f64_vec();
    s.stream_durations = r.f64_vec();
    s.stream_parents = r.i64_vec();
    const std::uint64_t admission_count = r.u64();
    if (admission_count > r.remaining() / 16) {
      throw util::SnapshotError(
          "checkpoint: admission count exceeds remaining");
    }
    s.admissions.resize(static_cast<std::size_t>(admission_count));
    for (auto& [playback, wait] : s.admissions) {
      playback = r.f64();
      wait = r.f64();
    }
    s.plan = plan::load_plan(r);
    s.pending = r.f64_vec();
    const std::uint64_t flushed_events = r.u64();
    const std::uint64_t flushed_waits = r.u64();
    if (flushed_events > s.events.size() || (flushed_events % 2) != 0 ||
        flushed_waits > s.waits.size()) {
      throw util::SnapshotError("checkpoint: flush cursor out of range");
    }
    s.flushed_events = static_cast<std::size_t>(flushed_events);
    s.flushed_waits = static_cast<std::size_t>(flushed_waits);
    s.dirty = r.boolean();

    s.sessions = plan::load_session_traces(r);
    const std::uint64_t resolved = r.u64();
    if (resolved > s.sessions.size()) {
      throw util::SnapshotError("checkpoint: resolved cursor out of range");
    }
    s.resolved_sessions = static_cast<std::size_t>(resolved);
    s.session_playbacks = r.f64_vec();
    s.session_ends = r.f64_vec();
    s.session_ends_sorted = r.boolean();
    const std::uint64_t plan_event_count = r.u64();
    if (plan_event_count > r.remaining() / 25) {
      throw util::SnapshotError(
          "checkpoint: plan-event count exceeds remaining");
    }
    s.plan_events.resize(static_cast<std::size_t>(plan_event_count));
    for (ObjectState::PlanEvent& e : s.plan_events) {
      e.wall = r.f64();
      e.playback = r.f64();
      e.session = r.i64();
      e.is_seek = r.boolean();
    }
    s.session_edits = plan::load_edits(r);
    s.repair = plan::load_repair_stats(r);

    s.last_time = r.f64();
    s.last_playback = r.f64();
    const std::uint64_t slot_count = r.u64();
    if (slot_count > r.remaining()) {
      throw util::SnapshotError("checkpoint: slot flags exceed remaining");
    }
    s.slot_has_stream.resize(static_cast<std::size_t>(slot_count));
    for (std::uint8_t& b : s.slot_has_stream) b = r.u8();

    const auto policy_blob = r.blob();
    if (s.policy != nullptr) {
      util::SnapshotReader policy_reader(policy_blob);
      s.policy->load_state(policy_reader);
      policy_reader.expect_end();
    } else if (!policy_blob.empty()) {
      throw util::SnapshotError(
          "checkpoint: policy state present on a slotted core");
    }
  }
  r.expect_end();
  std::size_t tallied = 0;
  for (const auto& state_ptr : impl_->objects) tallied += state_ptr->flushed_waits;
  if (static_cast<std::int64_t>(tallied) != impl_->waits.count()) {
    throw util::SnapshotError("checkpoint: wait histogram disagrees with the waits");
  }

  // Rebuild the per-shard mailbox index for *this* core's shard width —
  // the one field the config echo lets differ.
  for (auto& list : impl_->shard_dirty) list.clear();
  for (const auto& state_ptr : impl_->objects) {
    if (state_ptr->dirty) {
      impl_->shard_dirty[index_of(state_ptr->id) % config_.shards].push_back(
          state_ptr->id);
    }
  }
  return info;
}

Ticket ServerCore::preview_admission(Index object, double time) const {
  if (object < 0 || object >= config_.objects) {
    throw std::out_of_range("ServerCore::preview_admission: bad object id");
  }
  if (!(time >= 0.0)) {
    throw std::invalid_argument(
        "ServerCore::preview_admission: time must be nonnegative");
  }
  Ticket t;
  t.admitted = true;
  t.object = object;
  t.arrival = time;
  t.decision_time = time;
  switch (impl_->preview_kind) {
    case SlotKind::kDgSlot: {
      const DgAdmission a = dg_admission(time, config_.delay);
      t.slot = a.slot;
      t.playback_start = a.start;
      t.wait = a.wait;
      t.guarantee_wait = a.wait;
      return t;
    }
    case SlotKind::kBatchSlot: {
      t.playback_start = slot_start(slot_of(time, config_.delay), config_.delay);
      t.wait = t.playback_start - time;
      t.guarantee_wait = t.wait;
      return t;
    }
    case SlotKind::kNone:
      break;
  }
  // Generic policies decide at drain; the preview can only certify the
  // admission itself. Negative fields mean "not known at preview time".
  t.playback_start = -1.0;
  t.wait = -1.0;
  t.guarantee_wait = -1.0;
  return t;
}

void ServerCore::degrade_admissions() noexcept {
  if (config_.admission == AdmissionMode::kReject ||
      config_.admission == AdmissionMode::kDefer) {
    config_.admission = AdmissionMode::kDegrade;
  }
}

}  // namespace smerge::server
