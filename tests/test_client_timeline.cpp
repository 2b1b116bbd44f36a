// Tests for the per-client timeline renderer and a systematic truncation
// failure-injection sweep (the verifier must notice when any stream loses
// its last needed slot).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/full_cost.h"
#include "core/plan.h"
#include "plan_oracles.h"
#include "schedule/diagram.h"

namespace smerge {
namespace {

TEST(ClientTimeline, ClientHGolden) {
  // The client-side view of Fig. 3 for client H (arrival 7, path 0<5<7):
  // segments 1-2 from H, 3-9 from F, 10-15 from A, with the Lemma-15
  // buffer climbing to 7 and draining as playback catches up.
  const MergeForest forest = optimal_merge_forest(15, 8);
  const std::string timeline = client_timeline(forest, 7);
  const std::string expected =
      "client 7 (H): plays segments 1..15 from slot 7\n"
      "     t:  7  8  9 10 11 12 13 14\n"
      "from H:  1  2\n"
      "from F:  3  4  5  6  7  8  9\n"
      "from A:       10 11 12 13 14 15\n"
      "buffer:  1  2  3  4  5  6  7  7\n";
  EXPECT_EQ(timeline, expected);
}

TEST(ClientTimeline, RootClientIsFlat) {
  const MergeForest forest = optimal_merge_forest(15, 8);
  const std::string timeline = client_timeline(forest, 0);
  EXPECT_NE(timeline.find("client 0 (A)"), std::string::npos);
  // A root client never buffers.
  EXPECT_EQ(timeline.find("buffer:  1"), std::string::npos);
}

TEST(ClientTimeline, BufferRowMatchesLemma15Peak) {
  // The maximum number in the buffer row equals min(d, L-d) for each
  // client of the Fig.-3 instance.
  const MergeForest forest = optimal_merge_forest(15, 8);
  const plan::MergePlan p = forest.to_plan();
  for (Index a = 0; a < 8; ++a) {
    const plan::ClientReport report =
        plan::verify_client(p, a, Model::kReceiveTwo);
    const std::string timeline = client_timeline(forest, a);
    std::string needle = " ";  // built via append (GCC PR105651)
    needle += std::to_string(std::llround(report.peak_buffer));
    EXPECT_NE(timeline.find(needle), std::string::npos) << "a=" << a;
  }
}

TEST(FailureInjection, EveryTightTruncationIsNoticed) {
  // For each non-root stream, rebuild the plan with that stream one
  // slot shorter. Lemma-1 lengths are tight, so the verifier must flag
  // a playback break for some client.
  const plan::MergePlan p = optimal_merge_forest(15, 14).to_plan();
  for (Index victim = 0; victim < p.size(); ++victim) {
    const auto v = static_cast<std::size_t>(victim);
    if (p.parent()[v] == -1) continue;
    const plan::PlanReport report =
        plan::verify(oracles::with_stream_length(p, victim, p.length()[v] - 1.0));
    bool noticed = false;
    for (const plan::PlanDiagnostic& d : report.diagnostics) {
      noticed = noticed || d.invariant == plan::Invariant::kPlayback;
    }
    EXPECT_TRUE(noticed) << "stream " << victim
                         << " could be shortened with no client noticing "
                            "(truncation not tight)";
  }
}

TEST(ClientTimeline, ReceiveAllShowsAllPathStreams) {
  // Under receive-all the deepest clients list one row per path stream.
  const MergeForest forest = optimal_merge_forest(16, 16, Model::kReceiveAll);
  Index deepest = 0;
  Index depth = 0;
  const MergeTree& tree = forest.tree(0);
  for (Index a = 0; a < tree.size(); ++a) {
    if (tree.depth(a) > depth) {
      depth = tree.depth(a);
      deepest = a;
    }
  }
  ASSERT_GT(depth, 1);
  const std::string timeline =
      client_timeline(forest, forest.tree_offset(0) + deepest, Model::kReceiveAll);
  // Count "from X:" rows below the header (the header itself says
  // "... from slot t", so a raw substring count would overshoot).
  Index rows = 0;
  std::istringstream lines(timeline);
  std::string line;
  std::getline(lines, line);  // drop the header
  while (std::getline(lines, line)) {
    if (line.find("from ") != std::string::npos) ++rows;
  }
  EXPECT_EQ(rows, depth + 1);  // the whole root path supplies data
}

TEST(ClientTimeline, InvalidArrivalThrows) {
  const MergeForest forest = optimal_merge_forest(15, 8);
  EXPECT_THROW(client_timeline(forest, 8), std::out_of_range);
  EXPECT_THROW(client_timeline(forest, -1), std::out_of_range);
}

}  // namespace
}  // namespace smerge
