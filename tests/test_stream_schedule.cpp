// Tests for the slot-accurate transmission schedule (StreamSchedule).
#include "schedule/stream_schedule.h"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "core/full_cost.h"

namespace smerge {
namespace {

TEST(StreamSchedule, FigureThreeWindows) {
  // Fig. 3 (L=15, n=8): stream A runs 15 slots from t=0, F runs 9 slots
  // from t=5, H runs 2 slots from t=7, D runs 5 slots from t=3.
  const MergeForest forest = optimal_merge_forest(15, 8);
  const StreamSchedule sched(forest);
  EXPECT_EQ(sched.stream(0), (StreamWindow{0, 15}));
  EXPECT_EQ(sched.stream(3), (StreamWindow{3, 5}));
  EXPECT_EQ(sched.stream(5), (StreamWindow{5, 9}));
  EXPECT_EQ(sched.stream(7), (StreamWindow{7, 2}));
  EXPECT_EQ(sched.total_units(), 36);  // the optimal full cost
  EXPECT_EQ(sched.media_length(), 15);
}

TEST(StreamSchedule, WindowEnd) {
  const StreamWindow w{5, 9};
  EXPECT_EQ(w.end(), 14);
}

TEST(StreamSchedule, ProfileSumsToTotalUnits) {
  for (const auto& [L, n] : std::vector<std::pair<Index, Index>>{
           {15, 8}, {15, 14}, {4, 16}, {34, 100}, {100, 250}}) {
    const MergeForest forest = optimal_merge_forest(L, n);
    const StreamSchedule sched(forest);
    const Cost profile_sum = std::accumulate(sched.profile().begin(),
                                             sched.profile().end(), Cost{0});
    EXPECT_EQ(profile_sum, sched.total_units()) << "L=" << L << " n=" << n;
    EXPECT_EQ(sched.total_units(), forest.full_cost()) << "L=" << L << " n=" << n;
    EXPECT_GE(sched.peak_bandwidth(), 1) << "L=" << L;
    EXPECT_LE(sched.peak_bandwidth(),
              *std::max_element(sched.profile().begin(), sched.profile().end()));
  }
}

TEST(StreamSchedule, HorizonCoversLastStream) {
  const MergeForest forest = optimal_merge_forest(15, 8);
  const StreamSchedule sched(forest);
  EXPECT_EQ(sched.horizon_end(), 15);  // root A ends last: 0 + 15
  // Every stream ends within the horizon.
  for (Index x = 0; x < sched.size(); ++x) {
    EXPECT_LE(sched.stream(x).end(), sched.horizon_end());
  }
}

TEST(StreamSchedule, ReceiveAllUsesShorterStreams) {
  const MergeForest two = optimal_merge_forest(16, 32, Model::kReceiveTwo);
  const MergeForest all = optimal_merge_forest(16, 32, Model::kReceiveAll);
  const StreamSchedule s_two(two);
  const StreamSchedule s_all(all, Model::kReceiveAll);
  EXPECT_LT(s_all.total_units(), s_two.total_units());
}

TEST(StreamSchedule, RejectsInfeasibleForest) {
  // A chain over L arrivals has Lemma-1 lengths above L: not schedulable.
  std::vector<MergeTree> trees;
  trees.push_back(MergeTree::chain(13));
  const MergeForest forest(13, std::move(trees));
  EXPECT_FALSE(forest.feasible());
  EXPECT_THROW(StreamSchedule{forest}, std::invalid_argument);
}

TEST(StreamSchedule, AccessorRangeChecks) {
  const MergeForest forest = optimal_merge_forest(15, 8);
  const StreamSchedule sched(forest);
  EXPECT_THROW((void)sched.stream(-1), std::out_of_range);
  EXPECT_THROW((void)sched.stream(8), std::out_of_range);
}

TEST(StreamSchedule, PeakBandwidthBelowStreamCount) {
  // Peak concurrency cannot exceed the number of streams, and for the
  // delay-guaranteed model it is at least ceil(Fcost / horizon).
  const MergeForest forest = optimal_merge_forest(20, 60);
  const StreamSchedule sched(forest);
  EXPECT_LE(sched.peak_bandwidth(), forest.size());
  const Cost avg_ceil =
      (sched.total_units() + sched.horizon_end() - 1) / sched.horizon_end();
  EXPECT_GE(sched.peak_bandwidth(), avg_ceil);
}

}  // namespace
}  // namespace smerge
