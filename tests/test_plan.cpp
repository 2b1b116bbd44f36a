// The canonical MergePlan IR: builder invariants, round-trips from
// every producer, and the universal verifier as a cross-check oracle
// against the legacy per-structure walks.
#include "core/plan.h"

#include <gtest/gtest.h>

#include <random>

#include "core/full_cost.h"
#include "core/tree_builder.h"
#include "merging/dyadic.h"
#include "merging/optimal_general.h"
#include "online/delay_guaranteed.h"
#include "schedule/channels.h"
#include "schedule/stream_schedule.h"
#include "sim/arrivals.h"
#include "util/json_writer.h"

namespace smerge {
namespace {

TEST(PlanBuilder, ValidatesStructure) {
  EXPECT_THROW((void)plan::PlanBuilder(0.0), std::invalid_argument);
  plan::PlanBuilder b(1.0);
  EXPECT_EQ(b.add_stream(0.0, -1), 0);
  EXPECT_THROW((void)b.add_stream(0.5, 1), std::invalid_argument);   // future parent
  EXPECT_THROW((void)b.add_stream(0.5, -2), std::invalid_argument);  // bad id
  EXPECT_EQ(b.add_stream(0.5, 0), 1);
  EXPECT_THROW((void)b.add_stream(0.2, 0), std::invalid_argument);  // start order
  EXPECT_THROW((void)b.add_stream(0.5, 1), std::invalid_argument);  // equal-start parent
  EXPECT_THROW((void)b.add_stream(0.7, 0, -1.0), std::invalid_argument);
  EXPECT_THROW(b.record_wait(7, 0.1), std::out_of_range);
  EXPECT_THROW(b.record_wait(0, -0.1), std::invalid_argument);
  b.record_wait(1, 0.25);
  b.record_wait(1, 0.125);  // max-accumulates, does not overwrite
  const plan::MergePlan p = b.build();
  ASSERT_EQ(p.size(), 2);
  EXPECT_EQ(p.num_roots(), 1);
  EXPECT_DOUBLE_EQ(p.delay()[1], 0.25);
  EXPECT_DOUBLE_EQ(p.length()[0], 1.0);           // root: full media
  EXPECT_DOUBLE_EQ(p.length()[1], 2.0 * 0.5 - 0.5 - 0.0);  // Lemma 1
  EXPECT_DOUBLE_EQ(p.merge_time()[1], 2.0 * 0.5 - 0.0);
  ASSERT_EQ(p.children(0).size(), 1u);
  EXPECT_EQ(p.children(0)[0], 1);
  EXPECT_TRUE(p.children(1).empty());
  EXPECT_EQ(p.root_path(1), (std::vector<Index>{0, 1}));
  // The builder empties on build and is reusable.
  EXPECT_EQ(b.size(), 0);
}

TEST(Plan, EmptyPlanVerifies) {
  plan::PlanBuilder b(1.0);
  const plan::MergePlan p = b.build();
  EXPECT_EQ(p.size(), 0);
  EXPECT_DOUBLE_EQ(p.total_cost(), 0.0);
  EXPECT_EQ(p.peak_bandwidth(), 0);
  const plan::PlanReport r = plan::verify(p);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.clients, 0);
}

TEST(Plan, VerifyRejectsOverTruncatedStream) {
  // Chain 0 <- 5 with the child's Lemma-1 length (2*5 - 5 - 0 = 5)
  // explicitly cut to 3: its own client then has a media gap.
  plan::PlanBuilder b(16.0);
  (void)b.add_stream(0.0, -1);
  (void)b.add_stream(5.0, 0, 3.0);
  const plan::MergePlan p = b.build();
  const plan::PlanReport r = plan::verify(p);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.first_error.empty());
}

TEST(Plan, VerifyRejectsShortRoot) {
  plan::PlanBuilder b(8.0);
  (void)b.add_stream(0.0, -1, 5.0);  // a root must carry the full media
  const plan::MergePlan p = b.build();
  EXPECT_FALSE(plan::verify(p).ok);
}

TEST(PlanRoundTrip, FuzzedMergeForestsMatchLegacyWalks) {
  // MergeForest -> MergePlan -> verify on random preorder trees: the
  // verifier must accept every feasible forest and its cost / peak must
  // match the legacy full_cost / StreamSchedule walks exactly.
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const Index L = 24;
    std::vector<MergeTree> trees;
    for (Index b = 0; b < 4; ++b) {
      for (std::uint64_t attempt = 0;; ++attempt) {
        const Index n = 2 + (static_cast<Index>(seed ^ attempt) + b) % 10;
        const MergeTree t =
            random_merge_tree(n, seed * 131 + static_cast<std::uint64_t>(b) * 17 + attempt);
        if (t.feasible(L)) {
          trees.push_back(t);
          break;
        }
      }
    }
    const MergeForest forest(L, std::move(trees));
    const plan::MergePlan p = forest.to_plan();
    ASSERT_EQ(p.size(), forest.size());
    EXPECT_EQ(p.num_roots(), forest.num_trees());
    const plan::PlanReport report = plan::verify(p);
    EXPECT_TRUE(report.ok) << "seed=" << seed << ": " << report.first_error;
    EXPECT_DOUBLE_EQ(report.total_cost, static_cast<double>(forest.full_cost()));
    const StreamSchedule schedule(forest);
    EXPECT_EQ(report.peak_bandwidth, schedule.peak_bandwidth()) << "seed=" << seed;
    // The greedy channel assignment over the plan provisions exactly
    // the peak.
    EXPECT_EQ(assign_channels(p).channels_used, report.peak_bandwidth);
  }
}

TEST(PlanRoundTrip, FuzzedGeneralForestsMatchLegacyWalks) {
  // GeneralMergeForest -> MergePlan -> verify over the PR-2 fuzz corpus
  // (same generator: 180 trials x 3 media lengths, 540 instances): cost
  // and peak must agree with the forest's own walks, and the banded
  // optimum's direct plan (optimal_general_plan) must be identical to
  // the forest route.
  std::mt19937_64 rng(20260728);
  std::uniform_int_distribution<std::size_t> size_dist(0, 24);
  std::uniform_real_distribution<double> time_dist(0.0, 8.0);
  int instances = 0;
  for (int trial = 0; trial < 180; ++trial) {
    const std::size_t n = size_dist(rng);
    std::vector<double> t(n);
    for (double& x : t) x = time_dist(rng);
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    for (const double L : {1e-6, 0.75, 100.0}) {
      ++instances;
      const merging::GeneralOptimum opt = merging::optimal_general_forest(t, L);
      const plan::MergePlan via_forest = opt.forest.to_plan();
      const plan::PlanReport report = plan::verify(via_forest);
      EXPECT_TRUE(report.ok)
          << "trial=" << trial << " L=" << L << ": " << report.first_error;
      EXPECT_NEAR(report.total_cost, opt.forest.total_cost(), 1e-9)
          << "trial=" << trial << " L=" << L;
      EXPECT_NEAR(report.total_cost, opt.cost, 1e-9);
      EXPECT_EQ(report.peak_bandwidth, opt.forest.peak_concurrency());
      // The direct producer emits the same plan.
      const plan::MergePlan direct = merging::optimal_general_plan(t, L);
      ASSERT_EQ(direct.size(), via_forest.size());
      for (Index i = 0; i < direct.size(); ++i) {
        const auto u = static_cast<std::size_t>(i);
        EXPECT_EQ(direct.parent()[u], via_forest.parent()[u]);
        EXPECT_DOUBLE_EQ(direct.start()[u], via_forest.start()[u]);
        EXPECT_DOUBLE_EQ(direct.length()[u], via_forest.length()[u]);
      }
    }
  }
  EXPECT_GE(instances, 500);
}

TEST(PlanRoundTrip, DyadicForestsVerify) {
  const auto arrivals = sim::poisson_arrivals(0.02, 10.0, 11);
  merging::DyadicMerger merger(1.0, {});
  for (const double t : arrivals) merger.arrive(t);
  const plan::MergePlan p = merger.forest().to_plan();
  const plan::PlanReport report = plan::verify(p);
  EXPECT_TRUE(report.ok) << report.first_error;
  EXPECT_NEAR(report.total_cost, merger.forest().total_cost(), 1e-9);
  EXPECT_LE(report.max_concurrent, 2);
  EXPECT_LE(report.peak_buffer, 0.5 + 1e-9);  // Lemma 15 in continuous form
}

TEST(PlanRoundTrip, DelayGuaranteedOnlinePlanVerifies) {
  const DelayGuaranteedOnline dg(100);
  for (const Index n : {1, 20, 89, 200, 233, 500}) {
    const plan::MergePlan p = dg.to_plan(n);
    ASSERT_EQ(p.size(), n);
    const plan::PlanReport report = plan::verify(p);
    EXPECT_TRUE(report.ok) << "n=" << n << ": " << report.first_error;
    EXPECT_DOUBLE_EQ(report.total_cost, static_cast<double>(dg.cost(n)))
        << "n=" << n;
    // Section 3.3: nobody buffers more than L/2 slots.
    EXPECT_LE(report.peak_buffer, 50.0 + 1e-9);
  }
}

TEST(PlanRoundTrip, ReceiveAllModel) {
  const Index L = 32;
  const Index n = 24;
  const MergeForest forest = optimal_merge_forest(L, n, Model::kReceiveAll);
  const plan::MergePlan p = forest.to_plan(Model::kReceiveAll);
  EXPECT_EQ(p.model(), Model::kReceiveAll);
  const plan::PlanReport report = plan::verify(p);
  EXPECT_TRUE(report.ok) << report.first_error;
  EXPECT_DOUBLE_EQ(report.total_cost,
                   static_cast<double>(forest.full_cost(Model::kReceiveAll)));
  // Receive-all clients may read whole root paths at once...
  EXPECT_GE(report.max_concurrent, 2);
  // ...but the same lengths are illegal under receive-two.
  EXPECT_FALSE(plan::verify(p, Model::kReceiveTwo).ok);
}

TEST(Plan, JsonDumpIsValid) {
  const plan::MergePlan p = optimal_merge_plan(16, 8);
  const std::string doc = plan::to_json(p);
  EXPECT_EQ(util::json_error(doc), std::nullopt) << doc;
  EXPECT_NE(doc.find("\"schema\": \"smerge-plan-v2\""), std::string::npos);
  EXPECT_NE(doc.find("\"peak_bandwidth\""), std::string::npos);
  EXPECT_NE(doc.find("\"chunking\""), std::string::npos);
  EXPECT_NE(doc.find("\"active\""), std::string::npos);
}

}  // namespace
}  // namespace smerge
