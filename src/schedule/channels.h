// Physical channel assignment.
//
// The paper counts bandwidth in abstract "channels"; a deployment must
// pin each (truncated) stream to a concrete multicast channel such that
// no channel carries two streams at once. Streams are time intervals, so
// the interval-graph greedy (earliest start, reuse the channel freed the
// earliest) is optimal: it uses exactly the schedule's peak bandwidth.
#ifndef SMERGE_SCHEDULE_CHANNELS_H
#define SMERGE_SCHEDULE_CHANNELS_H

#include <vector>

#include "core/plan.h"

namespace smerge {

/// A stream -> channel mapping.
struct ChannelAssignment {
  std::vector<Index> channel_of;  ///< indexed by arrival/stream id
  Index channels_used = 0;

  friend bool operator==(const ChannelAssignment&, const ChannelAssignment&) = default;
};

/// A continuous-time transmission interval [start, end), the channel
/// occupancy unit of the simulation engine (src/sim/engine.h).
struct StreamInterval {
  double start = 0.0;
  double end = 0.0;
};

/// Greedy channel assignment over raw intervals, sorted by start time by
/// the caller (ties allowed): earliest start first, reusing the channel
/// freed the earliest, so it uses exactly the peak-overlap many channels.
[[nodiscard]] ChannelAssignment assign_channels(
    const std::vector<StreamInterval>& intervals);

/// Channel assignment straight off the canonical IR: works for any
/// producer's plan (off-line forests, the banded general optimum, the
/// on-line policies' engine output). Plan ids are already start-ordered,
/// so the result uses exactly `plan.peak_bandwidth()` channels.
[[nodiscard]] ChannelAssignment assign_channels(const plan::MergePlan& plan);

/// A +-1 occupancy edge at `time` (+1 = a stream starts, -1 = it ends).
struct ChannelEvent {
  double time = 0.0;
  int delta = 0;
};

/// Peak simultaneous occupancy of the half-open intervals described by
/// `events`. Sorts `events` in place (time ascending, ends before starts
/// at equal times, so back-to-back hops reuse a channel).
[[nodiscard]] Index peak_overlap(std::vector<ChannelEvent>& events);

}  // namespace smerge

#endif  // SMERGE_SCHEDULE_CHANNELS_H
