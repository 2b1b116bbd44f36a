// Pluggable on-line policies for the multi-object simulation engine.
//
// The engine (src/sim/engine.h) drives each media object through one
// ObjectPolicy: arrivals are delivered in nondecreasing time order and
// the policy answers by emitting admissions (arrival -> playback start)
// and multicast streams (start + duration) into a PolicySink. Three of
// the paper's algorithms plug in behind the same interface:
//
//  * DelayGuaranteedPolicy — Section 4.1 over online/delay_guaranteed:
//    a stream per slot with template-tree truncation,
//    demand-independent, wait <= delay;
//  * BatchingPolicy — one full stream at the end of every nonempty
//    delay-interval (the Theorem-14 baseline), wait <= delay;
//  * GreedyMergePolicy — the (alpha,beta)-dyadic merger of Section 4.2,
//    immediate (wait 0) or batched to slot ends (wait <= delay).
//
// Contract: on_arrival may only emit streams starting at or after the
// current arrival time; finish may emit anywhere in [0, horizon] (used
// by policies whose schedule is fixed, like Delay Guaranteed, or whose
// stream truncations resolve only at the horizon, like the merger's).
// Media length is the paper's normalized 1.0; delay and horizon are
// fractions/multiples of it.
#ifndef SMERGE_ONLINE_POLICY_H
#define SMERGE_ONLINE_POLICY_H

#include <cstdint>
#include <memory>
#include <string>

#include "core/session.h"
#include "merging/dyadic.h"
#include "online/delay_guaranteed.h"

namespace smerge::util {
class SnapshotReader;
class SnapshotWriter;
}  // namespace smerge::util

namespace smerge {

/// A client's admission under the DG slot mapping: slot t is the
/// interval (t*D, (t+1)*D], served by the stream at its end.
struct DgAdmission {
  Index slot = 0;      ///< the slot whose stream serves the client
  double start = 0.0;  ///< that stream's start, slot_start(slot + 1, D)
  double wait = 0.0;   ///< start - arrival, >= 0 by slot_of's construction
};

/// The kDgSlot admission of a client arriving at `arrival`, served by
/// slot `slot` (default: the slot ending at slot_of(arrival, D), or slot
/// 0) — the single home of the DG ticket arithmetic, shared by
/// DelayGuaranteedPolicy, the slotted-batching core and
/// ServerCore::preview_admission.
[[nodiscard]] DgAdmission dg_admission(double arrival, double slot_duration,
                                       Index slot);
[[nodiscard]] DgAdmission dg_admission(double arrival, double slot_duration);

/// Whether a policy's per-arrival decision is a closed-form slot
/// mapping. A policy advertising a slotted kind promises its on_arrival
/// admits *exactly* at that mapping (core/slot_clock) — so
/// ServerCore::preview_admission can certify a client's playback start
/// and wait before the drain that delivers the arrival.
enum class SlotKind : std::uint8_t {
  kNone = 0,   ///< decided at delivery: only the admission is certified
  kDgSlot,     ///< admit at dg_admission(t, D).start
  kBatchSlot,  ///< admit at slot_start(slot_of(t, D), D)
};

/// Where a policy records its decisions; implemented by the engine.
class PolicySink {
 public:
  virtual ~PolicySink() = default;
  /// A multicast stream transmitting [start, start + duration).
  /// `parent` is the stream this one merges into — the index of an
  /// earlier `start_stream` call on this sink (emission order), or -1
  /// for a full stream. It is what lets the engine assemble each
  /// object's schedule into a verifiable `plan::MergePlan`.
  virtual void start_stream(double start, double duration, Index parent = -1) = 0;
  /// A client admission; wait = playback_start - arrival >= 0. The
  /// playback start must coincide with some emitted stream's start.
  virtual void admit(double arrival, double playback_start) = 0;
  /// A previously emitted stream's end moved (plan repair after session
  /// churn): stream `index` (emission order on this sink) now ends at
  /// `new_end` absolute time. Default: ignore — policies that track
  /// their own cost or intervals override. Called only after the last
  /// on_arrival/finish, never concurrently with them.
  virtual void retract_stream(Index index, double new_end);
};

/// Per-object policy state; one instance per simulated media object.
class ObjectPolicy {
 public:
  virtual ~ObjectPolicy() = default;
  /// One client arrival, times nondecreasing across calls. Must admit
  /// the client; may emit streams starting at or after `time`.
  virtual void on_arrival(double time, PolicySink& sink) = 0;
  /// End of the run at `horizon`: flush fixed schedules and streams
  /// whose truncation resolved late.
  virtual void finish(double horizon, PolicySink& sink) = 0;
  /// A mid-session event (pause / seek / abandon) from the client
  /// admitted at `arrival`, observed at wall time `time`. Informational:
  /// the server applies the plan repair itself; policies override to
  /// adapt future decisions. Default: ignore. Times nondecreasing,
  /// interleaved with on_arrival in wall-time order.
  virtual void on_session_event(double time, double arrival,
                                const SessionEvent& event, PolicySink& sink);
  /// Appends this policy's mutable decision state (batching cursors,
  /// merge-forest structure) to a checkpoint payload. Stateless policies
  /// write nothing (the default). A `load_state` of the written bytes
  /// into a freshly made policy must reproduce future decisions
  /// bit-identically — the contract ServerCore::restore_state builds on.
  virtual void save_state(util::SnapshotWriter& writer) const;
  /// Restores state written by `save_state` on a policy freshly created
  /// by the same OnlinePolicy with the same (delay, horizon). Throws
  /// util::SnapshotError on malformed bytes. Default: reads nothing.
  virtual void load_state(util::SnapshotReader& reader);
  /// The closed-form slot mapping this policy's on_arrival admits by
  /// (see SlotKind). Default: kNone.
  [[nodiscard]] virtual SlotKind slot_kind() const noexcept;
};

/// A policy family: a name plus a factory for per-object state.
class OnlinePolicy {
 public:
  virtual ~OnlinePolicy() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Called once, single-threaded, before any object policies exist —
  /// the hook for shared precomputation (DG's template tree).
  virtual void prepare(double delay, double horizon);
  /// Fresh per-object state; called concurrently by engine shards, so
  /// it must not mutate the policy object.
  [[nodiscard]] virtual std::unique_ptr<ObjectPolicy> make_object_policy(
      double delay, double horizon) const = 0;
};

/// Section 4.1: a stream per slot, truncated per the Fibonacci template
/// tree; the cost is demand-independent and the wait is always < delay.
/// Requires delay = 1/L for an integer L (the slotted model's premise);
/// other delays throw from prepare/make_object_policy.
class DelayGuaranteedPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override;
  void prepare(double delay, double horizon) override;
  [[nodiscard]] std::unique_ptr<ObjectPolicy> make_object_policy(
      double delay, double horizon) const override;

  /// L = round(1/delay), the media length in slots (>= 1). Throws
  /// std::invalid_argument unless delay is 1/L within rounding.
  [[nodiscard]] static Index media_slots(double delay);

 private:
  std::shared_ptr<const DelayGuaranteedOnline> shared_;  ///< built in prepare
};

/// Batching alone: one full stream at the end of each nonempty
/// delay-interval (no merging) — the Theorem-14 comparison point.
class BatchingPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<ObjectPolicy> make_object_policy(
      double delay, double horizon) const override;
};

/// The (alpha,beta)-dyadic greedy merger, immediate or batched.
class GreedyMergePolicy final : public OnlinePolicy {
 public:
  /// `batched` quantizes arrivals to the ends of delay-intervals before
  /// merging (Section 4.2's batched variant); immediate serves at the
  /// arrival instant with zero wait.
  explicit GreedyMergePolicy(merging::DyadicParams params = {},
                             bool batched = false);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<ObjectPolicy> make_object_policy(
      double delay, double horizon) const override;
  [[nodiscard]] const merging::DyadicParams& params() const noexcept {
    return params_;
  }

 private:
  merging::DyadicParams params_;
  bool batched_;
};

}  // namespace smerge

#endif  // SMERGE_ONLINE_POLICY_H
