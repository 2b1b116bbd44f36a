// Slot-accurate transmission schedules.
//
// A merge forest determines exactly what the server multicasts: the stream
// started at arrival x transmits media segments 1..len(x) (len = L for
// roots, Lemma-1/Lemma-17 lengths otherwise), segment j occupying the slot
// [x+j-1, x+j). StreamSchedule materializes those windows and derives the
// channel-occupancy profile — the "server bandwidth" the paper's plots
// measure, including the peak number of simultaneously active streams
// (the Section-5 future-work metric).
#ifndef SMERGE_SCHEDULE_STREAM_SCHEDULE_H
#define SMERGE_SCHEDULE_STREAM_SCHEDULE_H

#include <vector>

#include "core/merge_forest.h"

namespace smerge {

/// One transmitted (possibly truncated) stream.
struct StreamWindow {
  Index start;   ///< slot at which the stream begins (its arrival time)
  Cost length;   ///< number of segments transmitted (1..L)

  /// First slot after the stream ends.
  [[nodiscard]] Index end() const noexcept { return start + length; }
  friend bool operator==(const StreamWindow&, const StreamWindow&) = default;
};

/// The full multicast schedule of a merge forest under a reception model.
class StreamSchedule {
 public:
  /// Builds the schedule. Throws std::invalid_argument if the forest is
  /// not feasible under `model` (some Lemma-1 length would exceed L).
  explicit StreamSchedule(const MergeForest& forest, Model model = Model::kReceiveTwo);

  /// Number of streams (= number of arrivals n).
  [[nodiscard]] Index size() const noexcept { return static_cast<Index>(streams_.size()); }
  /// The window of the stream started at arrival x.
  [[nodiscard]] const StreamWindow& stream(Index arrival) const;
  /// All windows, indexed by arrival.
  [[nodiscard]] const std::vector<StreamWindow>& streams() const noexcept { return streams_; }

  /// Total transmitted slot-units; equals the forest's full cost.
  [[nodiscard]] Cost total_units() const noexcept { return total_units_; }

  /// First slot after every stream has ended.
  [[nodiscard]] Index horizon_end() const noexcept { return horizon_end_; }

  /// Channel occupancy per slot: profile()[t] = number of streams active
  /// during [t, t+1), for 0 <= t < horizon_end().
  [[nodiscard]] const std::vector<Index>& profile() const noexcept { return profile_; }

  /// max over t of profile()[t] — the peak server bandwidth in channels.
  [[nodiscard]] Index peak_bandwidth() const noexcept { return peak_bandwidth_; }

  /// The media length L of the underlying forest.
  [[nodiscard]] Index media_length() const noexcept { return media_length_; }

 private:
  Index media_length_;
  std::vector<StreamWindow> streams_;
  std::vector<Index> profile_;
  Cost total_units_ = 0;
  Index horizon_end_ = 0;
  Index peak_bandwidth_ = 0;
};

}  // namespace smerge

#endif  // SMERGE_SCHEDULE_STREAM_SCHEDULE_H
