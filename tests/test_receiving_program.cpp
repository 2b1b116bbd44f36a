// Tests for client receiving programs (`plan::client_program`): the
// Section-2 stage rules, the worked client-H example, and the
// receive-all rules of Lemma 17, on slot-aligned forest plans, read as
// "[first,last]<-stream" segment blocks through `program_text`.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/full_cost.h"
#include "core/plan.h"
#include "schedule/diagram.h"

namespace smerge {
namespace {

TEST(ClientProgram, PaperClientH) {
  // Section 2's worked example (L=15): client H arrives at 7 with path
  // 0 < 5 < 7; it takes segments 1-2 from stream 7, 3-9 from stream 5
  // (parts 3,4 then 5..9 across the two stages) and 10-15 from the root.
  const plan::MergePlan p = optimal_merge_forest(15, 8).to_plan();
  EXPECT_EQ(p.root_path(7), (std::vector<Index>{0, 5, 7}));
  EXPECT_EQ(program_text(p, 7), "[1,2]<-7 [3,9]<-5 [10,15]<-0");
}

TEST(ClientProgram, PaperClientF) {
  // Client F (arrival 5) merges directly with the root at time 10:
  // segments 1-5 from its own stream, 6-15 from the root.
  const plan::MergePlan p = optimal_merge_forest(15, 8).to_plan();
  EXPECT_EQ(program_text(p, 5), "[1,5]<-5 [6,15]<-0");
  // F has caught up with the root when its own-stream block ends: slot
  // 2*5 - 0 = 10.
  EXPECT_EQ(p.start()[5] + plan::client_program(p, 5, Model::kReceiveTwo).front().to,
            10.0);
}

TEST(ClientProgram, RootClientPlaysOwnStream) {
  const plan::MergePlan p = optimal_merge_forest(15, 8).to_plan();
  EXPECT_EQ(program_text(p, 0), "[1,15]<-0");
}

TEST(ClientProgram, SecondTreeUsesItsOwnRoot) {
  // L=15, n=14 splits into two 7-arrival trees; client 9 sits in the
  // second tree whose root is arrival 7.
  const plan::MergePlan p = optimal_merge_forest(15, 14).to_plan();
  EXPECT_EQ(p.root_path(9).front(), 7);
  const std::string program = program_text(p, 9);
  EXPECT_TRUE(program.ends_with(",15]<-7")) << program;
}

TEST(ClientProgram, PiecesPartitionMediaEverywhere) {
  for (const auto& [L, n] : std::vector<std::pair<Index, Index>>{
           {15, 8}, {15, 14}, {4, 16}, {34, 89}, {10, 35}}) {
    const plan::MergePlan p = optimal_merge_forest(L, n).to_plan();
    for (Index a = 0; a < n; ++a) {
      double next = 0.0;
      for (const plan::Piece& piece : plan::client_program(p, a, Model::kReceiveTwo)) {
        ASSERT_EQ(piece.from, next) << "L=" << L << " n=" << n << " a=" << a;
        ASSERT_LT(piece.from, piece.to);
        next = piece.to;
      }
      EXPECT_EQ(next, static_cast<double>(L)) << "L=" << L << " n=" << n << " a=" << a;
    }
  }
}

TEST(ClientProgram, ReceiveAllFollowsLemmaSeventeen) {
  // Receive-all: client a takes segments (a-x_i, a-x_{i-1}] from x_i.
  const plan::MergePlan p =
      optimal_merge_forest(16, 16, Model::kReceiveAll).to_plan(Model::kReceiveAll);
  for (Index a = 0; a < 16; ++a) {
    const std::vector<Index> path = p.root_path(a);
    const auto k = static_cast<Index>(path.size()) - 1;
    std::ostringstream expected;
    for (Index m = k; m >= 0; --m) {
      const Index lo = m == k ? 1 : a - path[static_cast<std::size_t>(m)] + 1;
      const Index hi = m == 0 ? 16 : a - path[static_cast<std::size_t>(m - 1)];
      if (lo > hi) continue;  // empty provider
      if (expected.tellp() > 0) expected << ' ';
      expected << '[' << lo << ',' << hi << "]<-" << path[static_cast<std::size_t>(m)];
    }
    EXPECT_EQ(program_text(p, a, Model::kReceiveAll), expected.str()) << "a=" << a;
  }
}

TEST(ClientProgram, DeepClientCapsRootBlock) {
  // With d = a - root > L/2 the root block is clipped at L (Lemma 15
  // case 2). Build a star over 8 arrivals with L=8: client 7 has d=7,
  // receives 1..7 from its own stream and only segment 8 from the root.
  std::vector<MergeTree> trees;
  trees.push_back(MergeTree::star(8));
  const plan::MergePlan p = MergeForest(8, std::move(trees)).to_plan();
  EXPECT_EQ(program_text(p, 7), "[1,7]<-7 [8,8]<-0");
}

TEST(ClientProgram, InvalidArrivalThrows) {
  const plan::MergePlan p = optimal_merge_forest(15, 8).to_plan();
  EXPECT_THROW((void)plan::client_program(p, -1, Model::kReceiveTwo),
               std::out_of_range);
  EXPECT_THROW((void)plan::client_program(p, 8, Model::kReceiveTwo),
               std::out_of_range);
}

}  // namespace
}  // namespace smerge
