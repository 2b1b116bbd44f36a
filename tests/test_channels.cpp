// Tests for the physical channel assignment (interval scheduling).
#include "schedule/channels.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/full_cost.h"
#include "online/delay_guaranteed.h"
#include "schedule/stream_schedule.h"

namespace smerge {
namespace {

void expect_valid(const StreamSchedule& schedule, const ChannelAssignment& asg) {
  // No two streams on the same channel may overlap in time.
  ASSERT_EQ(asg.channel_of.size(), static_cast<std::size_t>(schedule.size()));
  for (Index a = 0; a < schedule.size(); ++a) {
    for (Index b = a + 1; b < schedule.size(); ++b) {
      if (asg.channel_of[static_cast<std::size_t>(a)] !=
          asg.channel_of[static_cast<std::size_t>(b)]) {
        continue;
      }
      const StreamWindow& wa = schedule.stream(a);
      const StreamWindow& wb = schedule.stream(b);
      EXPECT_TRUE(wa.end() <= wb.start || wb.end() <= wa.start)
          << "streams " << a << " and " << b << " overlap on channel "
          << asg.channel_of[static_cast<std::size_t>(a)];
    }
  }
  for (const Index c : asg.channel_of) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, asg.channels_used);
  }
}

TEST(Channels, FigureThreeInstance) {
  const MergeForest forest = optimal_merge_forest(15, 8);
  const StreamSchedule schedule(forest);
  const ChannelAssignment asg = assign_channels(forest.to_plan());
  expect_valid(schedule, asg);
  EXPECT_EQ(asg.channels_used, schedule.peak_bandwidth());
  // The root must sit alone on its channel (it spans the whole horizon).
  const Index root_channel = asg.channel_of[0];
  for (Index x = 1; x < schedule.size(); ++x) {
    EXPECT_NE(asg.channel_of[static_cast<std::size_t>(x)], root_channel);
  }
}

class ChannelSweep : public ::testing::TestWithParam<std::tuple<Index, Index>> {};

TEST_P(ChannelSweep, GreedyIsOptimalEverywhere) {
  const auto [L, n] = GetParam();
  const MergeForest forest = optimal_merge_forest(L, n);
  const StreamSchedule schedule(forest);
  const ChannelAssignment asg = assign_channels(forest.to_plan());
  expect_valid(schedule, asg);
  // Interval-graph coloring: greedy by start time is exactly peak-optimal.
  EXPECT_EQ(asg.channels_used, schedule.peak_bandwidth());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChannelSweep,
    ::testing::Combine(::testing::Values<Index>(2, 8, 15, 55),
                       ::testing::Values<Index>(1, 8, 40, 160)));

TEST(Channels, OnlineForestAssignment) {
  const DelayGuaranteedOnline policy(34);
  const MergeForest forest = policy.forest(100);
  const StreamSchedule schedule(forest);
  const ChannelAssignment asg = assign_channels(forest.to_plan());
  expect_valid(schedule, asg);
  EXPECT_EQ(asg.channels_used, schedule.peak_bandwidth());
}

TEST(Channels, IntervalOverloadMatchesPeakOverlap) {
  // Continuous-time intervals from a small engine-style run: the greedy
  // assignment must use exactly the peak-overlap many channels and keep
  // channels conflict-free.
  const std::vector<StreamInterval> intervals{
      {0.0, 1.0}, {0.1, 0.4}, {0.2, 0.3}, {0.4, 0.9}, {1.0, 2.0}, {1.5, 1.8}};
  const ChannelAssignment asg = assign_channels(intervals);
  std::vector<ChannelEvent> events;
  for (const StreamInterval& w : intervals) {
    events.push_back({w.start, +1});
    events.push_back({w.end, -1});
  }
  EXPECT_EQ(asg.channels_used, peak_overlap(events));
  EXPECT_EQ(asg.channels_used, 3);
  for (std::size_t a = 0; a < intervals.size(); ++a) {
    for (std::size_t b = a + 1; b < intervals.size(); ++b) {
      if (asg.channel_of[a] != asg.channel_of[b]) continue;
      EXPECT_TRUE(intervals[a].end <= intervals[b].start ||
                  intervals[b].end <= intervals[a].start);
    }
  }
}

TEST(Channels, IntervalOverloadRejectsUnsortedStarts) {
  const std::vector<StreamInterval> unsorted{{1.0, 2.0}, {0.0, 3.0}};
  EXPECT_THROW((void)assign_channels(unsorted), std::invalid_argument);
}

TEST(Channels, PeakOverlapCountsBackToBackOnce) {
  // A stream ending exactly when another starts frees its channel first.
  std::vector<ChannelEvent> events{{0.0, +1}, {1.0, -1}, {1.0, +1}, {2.0, -1}};
  EXPECT_EQ(peak_overlap(events), 1);
  std::vector<ChannelEvent> empty;
  EXPECT_EQ(peak_overlap(empty), 0);
}

}  // namespace
}  // namespace smerge
