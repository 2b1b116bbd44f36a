// Fuzz-style playback verification over random, non-optimal tree shapes.
//
// The constructed-forest tests exercise only optimal structures; here we
// grow random preorder trees, keep the feasible ones, and check that
//   * the plan verifier accepts every feasible tree (the model is sound
//     beyond the optimum),
//   * Lemma 15 is exact for *arbitrary* feasible L-trees: the measured
//     peak buffer of every client equals min(d, L-d), and
//   * Lemma-1 truncations are tight: each non-root stream transmits
//     exactly up to the furthest position any client reads from it.
#include <gtest/gtest.h>

#include "core/buffer.h"
#include "core/plan.h"
#include "core/tree_builder.h"
#include "plan_oracles.h"

namespace smerge {
namespace {

class RandomTreeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTreeFuzz, RandomTreesAreValidMergeTrees) {
  const std::uint64_t seed = GetParam();
  for (const Index n : {1, 2, 5, 13, 40, 120}) {
    const MergeTree t = random_merge_tree(n, seed);
    EXPECT_EQ(t.size(), n);
    // Reconstructing from the same parents must succeed (preorder holds).
    EXPECT_NO_THROW(MergeTree{t.parents()});
    // Costs are sandwiched between the optimum and the worst chain.
    EXPECT_GE(t.merge_cost(), merge_cost(n));
    EXPECT_LE(t.merge_cost(), (n - 1) * (n - 1));
  }
}

TEST_P(RandomTreeFuzz, FeasibleTreesPlayBackWithExactLemma15Buffers) {
  const std::uint64_t seed = GetParam();
  Index verified = 0;
  for (Index variant = 0; variant < 12; ++variant) {
    const Index n = 3 + (static_cast<Index>(seed) + 5 * variant) % 14;
    const MergeTree t = random_merge_tree(n, seed * 1009 + static_cast<std::uint64_t>(variant));
    // Pick the smallest L that makes the tree a feasible L-tree.
    Cost max_len = n;  // span needs L >= n
    for (Index x = 1; x < n; ++x) max_len = std::max(max_len, t.length(x));
    const Index L = static_cast<Index>(max_len);
    ASSERT_TRUE(t.feasible(L));
    std::vector<MergeTree> trees;
    trees.push_back(t);
    const MergeForest forest(L, std::move(trees));
    const plan::MergePlan p = forest.to_plan();
    const plan::PlanReport report = plan::verify(p);
    EXPECT_TRUE(report.ok) << "n=" << n << " L=" << L << " seed=" << seed
                           << ": " << report.first_error;
    EXPECT_LE(report.max_concurrent, 2);
    EXPECT_DOUBLE_EQ(report.total_cost, static_cast<double>(forest.full_cost()));
    EXPECT_EQ(oracles::first_lemma15_mismatch(forest), -1)
        << "n=" << n << " L=" << L << " seed=" << seed;
    EXPECT_EQ(oracles::first_loose_stream(p, Model::kReceiveTwo), -1)
        << "n=" << n << " L=" << L << " seed=" << seed;
    ++verified;
  }
  EXPECT_EQ(verified, 12);
}

TEST_P(RandomTreeFuzz, RandomForestsOfRandomTreesVerify) {
  // Several random trees in one forest, sized so each fits the media.
  const std::uint64_t seed = GetParam();
  const Index L = 24;
  std::vector<MergeTree> trees;
  for (Index b = 0; b < 5; ++b) {
    for (std::uint64_t attempt = 0;; ++attempt) {
      const Index n = 2 + (static_cast<Index>(seed ^ attempt) + b) % 10;
      const MergeTree t =
          random_merge_tree(n, seed * 31 + static_cast<std::uint64_t>(b) * 7 + attempt);
      if (t.feasible(L)) {
        trees.push_back(t);
        break;
      }
    }
  }
  const MergeForest forest(L, std::move(trees));
  const plan::MergePlan p = forest.to_plan();
  const plan::PlanReport report = plan::verify(p);
  EXPECT_TRUE(report.ok) << report.first_error;
  // Lemma 15 per client, each measured from its own tree's root, and
  // the forest-wide maximum.
  EXPECT_EQ(oracles::first_lemma15_mismatch(forest), -1) << "seed=" << seed;
  EXPECT_EQ(report.peak_buffer,
            static_cast<double>(max_buffer_requirement(forest)));
  EXPECT_EQ(oracles::first_loose_stream(p, Model::kReceiveTwo), -1) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeFuzz,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace smerge
