#include "online/policy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "merging/batching.h"
#include "util/snapshot.h"

namespace smerge {

Index dg_slot_of(double arrival_time, double slot_duration) {
  const double slots = arrival_time / slot_duration;
  const auto rounded = static_cast<Index>(std::ceil(slots - 1e-12));
  return rounded == 0 ? Index{0} : rounded - 1;
}

DgAdmission dg_admission(double arrival, double slot_duration, Index slot) {
  const double start = static_cast<double>(slot + 1) * slot_duration;
  return {slot, start, std::max(0.0, start - arrival)};
}

DgAdmission dg_admission(double arrival, double slot_duration) {
  return dg_admission(arrival, slot_duration,
                      dg_slot_of(arrival, slot_duration));
}

namespace {

void check_delay(double delay) {
  if (!(delay > 0.0) || delay > 1.0) {
    throw std::invalid_argument("policy: delay must be in (0, 1]");
  }
}

// --- Delay Guaranteed -----------------------------------------------------

class DgObjectPolicy final : public ObjectPolicy {
 public:
  DgObjectPolicy(std::shared_ptr<const DelayGuaranteedOnline> dg, double delay)
      : dg_(std::move(dg)), delay_(delay) {}

  void on_arrival(double time, PolicySink& sink) override {
    // The per-arrival "decision" is an O(1) slot lookup; the multicast
    // schedule itself is fixed and emitted in finish().
    sink.admit(time, dg_admission(time, delay_).start);
  }

  void finish(double horizon, PolicySink& sink) override {
    const Index L = dg_->media_length();
    const MergeTree& tmpl = dg_->template_tree();
    const Index block = dg_->block_size();
    // Every slot that begins within the horizon gets its stream — the
    // ceil (with dg_slot_of's boundary guard) covers a fractional final
    // slot, so no admitted client can map past the emitted schedule.
    // Parents follow the template tree (a prefix keeps its parents), so
    // the emitted schedule round-trips into a verifiable MergePlan.
    const auto n = static_cast<Index>(
        std::ceil(horizon * static_cast<double>(L) - 1e-12));
    for (Index t = 0; t < n; ++t) {
      const Index local = t % block;
      const Index parent = local == 0 ? -1 : (t - local) + tmpl.parent(local);
      // Slot t's stream starts where its clients' admissions start.
      sink.start_stream(dg_admission(0.0, delay_, t).start,
                        static_cast<double>(dg_->stream_length(t, n)) * delay_,
                        parent);
    }
  }

  [[nodiscard]] SlotKind slot_kind() const noexcept override {
    return SlotKind::kDgSlot;
  }

 private:
  std::shared_ptr<const DelayGuaranteedOnline> dg_;
  double delay_;
};

// --- Batching -------------------------------------------------------------

class BatchingObjectPolicy final : public ObjectPolicy {
 public:
  explicit BatchingObjectPolicy(double delay) : delay_(delay) {}

  void on_arrival(double time, PolicySink& sink) override {
    const double start = merging::batch_start_of(time, delay_);
    if (start > last_start_) {
      sink.start_stream(start, 1.0);
      last_start_ = start;
    }
    sink.admit(time, start);
  }

  void finish(double, PolicySink&) override {}

  void save_state(util::SnapshotWriter& writer) const override {
    writer.f64(last_start_);
  }

  void load_state(util::SnapshotReader& reader) override {
    last_start_ = reader.f64();
  }

  [[nodiscard]] SlotKind slot_kind() const noexcept override {
    return SlotKind::kBatchSlot;
  }

 private:
  double delay_;
  double last_start_ = -std::numeric_limits<double>::infinity();
};

// --- Greedy (dyadic) merging ----------------------------------------------

class GreedyObjectPolicy final : public ObjectPolicy {
 public:
  GreedyObjectPolicy(merging::DyadicParams params, bool batched, double delay)
      : merger_(1.0, params), batched_(batched), delay_(delay) {}

  void on_arrival(double time, PolicySink& sink) override {
    if (batched_) {
      const double start = merging::batch_start_of(time, delay_);
      sink.admit(time, start);
      if (start > last_start_) {
        merger_.arrive(start);
        last_start_ = start;
      }
    } else {
      sink.admit(time, time);
      merger_.arrive(time);
    }
  }

  void finish(double, PolicySink& sink) override {
    // Truncations (Lemma-1 durations) are final only once the last
    // arrival is known, so the stream intervals are emitted here; the
    // merger's parents pass straight through (ids = emission order).
    const merging::GeneralMergeForest& forest = merger_.forest();
    for (Index i = 0; i < forest.size(); ++i) {
      sink.start_stream(forest.stream(i).time, forest.stream_duration(i),
                        forest.stream(i).parent);
    }
  }

  void save_state(util::SnapshotWriter& writer) const override {
    merger_.save(writer);
    writer.f64(last_start_);
  }

  void load_state(util::SnapshotReader& reader) override {
    merger_.restore(reader);
    last_start_ = reader.f64();
  }

 private:
  merging::DyadicMerger merger_;
  bool batched_;
  double delay_;
  double last_start_ = -std::numeric_limits<double>::infinity();
};

}  // namespace

void PolicySink::retract_stream(Index /*index*/, double /*new_end*/) {}

void ObjectPolicy::on_session_event(double /*time*/, double /*arrival*/,
                                    const SessionEvent& /*event*/,
                                    PolicySink& /*sink*/) {}

void ObjectPolicy::save_state(util::SnapshotWriter& /*writer*/) const {}

void ObjectPolicy::load_state(util::SnapshotReader& /*reader*/) {}

SlotKind ObjectPolicy::slot_kind() const noexcept { return SlotKind::kNone; }

void OnlinePolicy::prepare(double delay, double horizon) {
  check_delay(delay);
  if (horizon < 0.0) {
    throw std::invalid_argument("policy: horizon must be nonnegative");
  }
}

std::string DelayGuaranteedPolicy::name() const { return "delay-guaranteed"; }

Index DelayGuaranteedPolicy::media_slots(double delay) {
  check_delay(delay);
  const auto L = std::max<Index>(
      static_cast<Index>(std::llround(1.0 / delay)), 1);
  // The DG model slots the unit media into exactly L delay-length
  // pieces; a delay that is not (within rounding) the reciprocal of an
  // integer would make the admission map and the emitted schedule
  // disagree about slot boundaries, so reject it loudly.
  if (std::abs(delay * static_cast<double>(L) - 1.0) > 1e-9) {
    throw std::invalid_argument(
        "DelayGuaranteedPolicy: delay must be 1/L for an integer slot "
        "count L");
  }
  return L;
}

void DelayGuaranteedPolicy::prepare(double delay, double horizon) {
  OnlinePolicy::prepare(delay, horizon);
  const Index L = media_slots(delay);
  if (shared_ == nullptr || shared_->media_length() != L) {
    shared_ = std::make_shared<const DelayGuaranteedOnline>(L);
  }
}

std::unique_ptr<ObjectPolicy> DelayGuaranteedPolicy::make_object_policy(
    double delay, double) const {
  const Index L = media_slots(delay);
  if (shared_ == nullptr) {
    throw std::logic_error("DelayGuaranteedPolicy: prepare() not called");
  }
  if (shared_->media_length() != L) {
    throw std::logic_error("DelayGuaranteedPolicy: prepared for another delay");
  }
  return std::make_unique<DgObjectPolicy>(shared_, delay);
}

std::string BatchingPolicy::name() const { return "batching"; }

std::unique_ptr<ObjectPolicy> BatchingPolicy::make_object_policy(
    double delay, double) const {
  check_delay(delay);
  return std::make_unique<BatchingObjectPolicy>(delay);
}

GreedyMergePolicy::GreedyMergePolicy(merging::DyadicParams params, bool batched)
    : params_(params), batched_(batched) {}

std::string GreedyMergePolicy::name() const {
  return batched_ ? "greedy-merge-batched" : "greedy-merge";
}

std::unique_ptr<ObjectPolicy> GreedyMergePolicy::make_object_policy(
    double delay, double) const {
  check_delay(delay);
  return std::make_unique<GreedyObjectPolicy>(params_, batched_, delay);
}

}  // namespace smerge
