// End-to-end playback verification: every client of every constructed
// forest plays the media uninterrupted within the model's constraints.
// This is the paper's implicit correctness claim, checked by the plan
// verifier on each forest's plan (see src/core/plan.h for the invariant
// list), plus the Lemma 15 and tight-truncation oracles of
// tests/plan_oracles.h.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/buffer.h"
#include "core/full_cost.h"
#include "core/plan.h"
#include "plan_oracles.h"

namespace smerge {
namespace {

TEST(Playback, FigureThreeInstanceVerifies) {
  const MergeForest forest = optimal_merge_forest(15, 8);
  const plan::MergePlan p = forest.to_plan();
  const plan::PlanReport report = plan::verify(p);
  EXPECT_TRUE(report.ok) << report.first_error;
  EXPECT_EQ(report.clients, 8);
  EXPECT_EQ(report.max_concurrent, 2);
  EXPECT_EQ(report.peak_buffer, 7.0);  // client 7: min(7, 15-7)
  EXPECT_EQ(oracles::first_lemma15_mismatch(forest), -1);
  EXPECT_EQ(oracles::first_loose_stream(p, Model::kReceiveTwo), -1);
}

TEST(Playback, ClientHDetails) {
  const plan::MergePlan p = optimal_merge_forest(15, 8).to_plan();
  const plan::ClientReport report =
      plan::verify_client(p, 7, Model::kReceiveTwo);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.max_concurrent, 2);
  EXPECT_EQ(report.peak_buffer, static_cast<double>(buffer_requirement(7, 15)));
  double completion = 0.0;
  for (const plan::Piece& piece : plan::client_program(p, 7, Model::kReceiveTwo)) {
    completion = std::max(completion, p.start()[static_cast<std::size_t>(piece.stream)] + piece.to);
  }
  EXPECT_EQ(completion, 15.0);  // last root segment lands at t=15
}

class PlaybackSweep : public ::testing::TestWithParam<std::tuple<Index, Index>> {};

TEST_P(PlaybackSweep, ReceiveTwoForestsVerify) {
  const auto [L, n] = GetParam();
  const MergeForest forest = optimal_merge_forest(L, n);
  const plan::MergePlan p = forest.to_plan();
  const plan::PlanReport report = plan::verify(p);
  EXPECT_TRUE(report.ok) << "L=" << L << " n=" << n << ": " << report.first_error;
  EXPECT_LE(report.max_concurrent, 2);
  EXPECT_LE(report.peak_buffer, static_cast<double>(L / 2));
  EXPECT_EQ(oracles::first_lemma15_mismatch(forest), -1) << "L=" << L << " n=" << n;
  EXPECT_EQ(oracles::first_loose_stream(p, Model::kReceiveTwo), -1);
}

TEST_P(PlaybackSweep, ReceiveAllForestsVerify) {
  const auto [L, n] = GetParam();
  const plan::MergePlan p =
      optimal_merge_forest(L, n, Model::kReceiveAll).to_plan(Model::kReceiveAll);
  const plan::PlanReport report = plan::verify(p);
  EXPECT_TRUE(report.ok) << "L=" << L << " n=" << n << ": " << report.first_error;
  EXPECT_EQ(oracles::first_loose_stream(p, Model::kReceiveAll), -1);
}

TEST_P(PlaybackSweep, BoundedBufferForestsVerify) {
  const auto [L, n] = GetParam();
  const Index B = std::max<Index>(1, L / 3);
  const MergeForest forest = optimal_merge_forest_bounded(L, n, B);
  const plan::MergePlan p = forest.to_plan();
  const plan::PlanReport report = plan::verify(p);
  EXPECT_TRUE(report.ok) << "L=" << L << " n=" << n << ": " << report.first_error;
  EXPECT_LE(report.peak_buffer, static_cast<double>(B));
  EXPECT_EQ(oracles::first_lemma15_mismatch(forest), -1) << "L=" << L << " n=" << n;
  EXPECT_EQ(oracles::first_loose_stream(p, Model::kReceiveTwo), -1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlaybackSweep,
    ::testing::Combine(::testing::Values<Index>(1, 2, 3, 5, 8, 15, 21, 40, 100),
                       ::testing::Values<Index>(1, 2, 7, 8, 16, 55, 150)));

TEST(Playback, StarTreeDeepClients) {
  // Star over 8 arrivals with L=8 exercises the Lemma-15 case-2 path
  // (d > L/2) for several clients at once.
  std::vector<MergeTree> trees;
  trees.push_back(MergeTree::star(8));
  const MergeForest forest(8, std::move(trees));
  const plan::MergePlan p = forest.to_plan();
  const plan::PlanReport report = plan::verify(p);
  EXPECT_TRUE(report.ok) << report.first_error;
  EXPECT_EQ(report.peak_buffer, 4.0);  // min(d, 8-d) maxes at d=4
  EXPECT_EQ(oracles::first_lemma15_mismatch(forest), -1);
  EXPECT_EQ(oracles::first_loose_stream(p, Model::kReceiveTwo), -1);
}

TEST(Playback, ReceiveAllConcurrencyGrowsWithDepth) {
  // In the receive-all model a depth-k client listens to k+1 streams.
  const plan::MergePlan p =
      optimal_merge_forest(64, 64, Model::kReceiveAll).to_plan(Model::kReceiveAll);
  const plan::PlanReport report = plan::verify(p);
  EXPECT_TRUE(report.ok) << report.first_error;
  EXPECT_GT(report.max_concurrent, 2);  // beyond receive-two's budget
  EXPECT_EQ(oracles::first_loose_stream(p, Model::kReceiveAll), -1);
}

TEST(Playback, FailureInjectionTruncatedStream) {
  // Client H's program takes segments up to 9 from stream 5; truncate
  // stream 5 at 7 (its length when arrival 7 merges straight into the
  // root) and the verifier must flag the missing segments.
  const plan::MergePlan p = optimal_merge_forest(15, 8).to_plan();
  ASSERT_EQ(p.length()[5], 9.0);
  const plan::ClientReport report = plan::verify_client(
      oracles::with_stream_length(p, 5, 7.0), 7, Model::kReceiveTwo);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("truncated"), std::string::npos) << report.error;
}

TEST(Playback, FailureInjectionWrongModel) {
  // Receive-all truncations (Lemma 17) are shorter than receive-two's
  // (Lemma 1): checking a receive-all plan under receive-two rules
  // must flag deep clients whose receive-two programs outrun them.
  const plan::MergePlan p =
      optimal_merge_forest(64, 64, Model::kReceiveAll).to_plan(Model::kReceiveAll);
  const plan::PlanReport report = plan::verify(p, Model::kReceiveTwo);
  EXPECT_FALSE(report.ok);
  bool truncated = false;
  for (const plan::PlanDiagnostic& d : report.diagnostics) {
    truncated = truncated || (d.invariant == plan::Invariant::kPlayback &&
                              d.message.find("truncated") != std::string::npos);
  }
  EXPECT_TRUE(truncated) << report.first_error;
}

}  // namespace
}  // namespace smerge
