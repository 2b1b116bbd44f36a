// Tests for the on-line Delay Guaranteed algorithm (Section 4.1):
// exact costs, the Theorem-21 bound, the Theorem-22 competitive ratio,
// the produced forests, and Delay Guaranteed serving through the live
// core.
#include "online/delay_guaranteed.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/plan.h"
#include "core/tree_builder.h"
#include "online/policy.h"
#include "plan_oracles.h"
#include "server/server_core.h"

namespace smerge {
namespace {

TEST(DelayGuaranteedOnline, BlockSizeFollowsTheoremTwelve) {
  // L=15 => h=6 => blocks of F_6 = 8 arrivals; L=100 => h=10 => F_10 = 55.
  EXPECT_EQ(DelayGuaranteedOnline(15).block_size(), 8);
  EXPECT_EQ(DelayGuaranteedOnline(15).theorem_index(), 6);
  EXPECT_EQ(DelayGuaranteedOnline(100).block_size(), 55);
  EXPECT_EQ(DelayGuaranteedOnline(1).block_size(), 1);
  EXPECT_EQ(DelayGuaranteedOnline(2).block_size(), 2);
}

TEST(DelayGuaranteedOnline, TemplateIsOptimalTree) {
  const DelayGuaranteedOnline dg(15);
  EXPECT_EQ(dg.template_tree(), optimal_merge_tree(8));
  EXPECT_EQ(dg.template_tree().merge_cost(), merge_cost(8));
}

TEST(DelayGuaranteedOnline, ExactCostFullBlocks) {
  const DelayGuaranteedOnline dg(15);
  // Each full block costs L + M(F_h) = 15 + 21.
  EXPECT_EQ(dg.cost(0), 0);
  EXPECT_EQ(dg.cost(8), 36);
  EXPECT_EQ(dg.cost(16), 72);
  EXPECT_EQ(dg.cost(80), 360);
}

TEST(DelayGuaranteedOnline, ExactCostPartialBlocks) {
  const DelayGuaranteedOnline dg(15);
  // The pruned final tree pays the prefix cost of the template.
  const MergeTree& tpl = dg.template_tree();
  for (Index r = 1; r < 8; ++r) {
    EXPECT_EQ(dg.cost(r), 15 + tpl.prefix(r).merge_cost()) << "r=" << r;
    EXPECT_EQ(dg.cost(8 + r), 36 + 15 + tpl.prefix(r).merge_cost()) << "r=" << r;
  }
}

TEST(DelayGuaranteedOnline, PrefixCostsMatchDirectComputation) {
  for (const Index L : {4, 15, 34, 100, 377}) {
    const DelayGuaranteedOnline dg(L);
    const MergeTree& tpl = dg.template_tree();
    for (Index r = 1; r <= dg.block_size(); ++r) {
      EXPECT_EQ(dg.cost(r), L + tpl.prefix(r).merge_cost())
          << "L=" << L << " r=" << r;
    }
  }
}

TEST(DelayGuaranteedOnline, CostNeverBelowOptimal) {
  for (const Index L : {7, 15, 34, 100}) {
    const DelayGuaranteedOnline dg(L);
    for (Index n = 1; n <= 6 * dg.block_size(); ++n) {
      EXPECT_GE(dg.cost(n), full_cost(L, n)) << "L=" << L << " n=" << n;
    }
  }
}

TEST(DelayGuaranteedOnline, TheoremTwentyOneBound) {
  for (const Index L : {7, 15, 34, 100}) {
    const DelayGuaranteedOnline dg(L);
    for (Index n = 1; n <= 5 * dg.block_size(); n += 3) {
      EXPECT_LE(dg.cost(n), dg.cost_upper_bound(n)) << "L=" << L << " n=" << n;
    }
  }
}

TEST(DelayGuaranteedOnline, TheoremTwentyTwoRatio) {
  // A(L,n)/F(L,n) <= 1 + 2L/n for L >= 7, n > L^2 + 2.
  for (const Index L : {7, 10, 15, 21}) {
    const DelayGuaranteedOnline dg(L);
    for (const Index n : {L * L + 3, 2 * L * L, 10 * L * L}) {
      const double ratio = static_cast<double>(dg.cost(n)) /
                           static_cast<double>(full_cost(L, n));
      EXPECT_LE(ratio, DelayGuaranteedOnline::theorem22_bound(L, n))
          << "L=" << L << " n=" << n;
    }
  }
  EXPECT_THROW((void)DelayGuaranteedOnline::theorem22_bound(6, 1000), std::invalid_argument);
  EXPECT_THROW((void)DelayGuaranteedOnline::theorem22_bound(7, 51), std::invalid_argument);
}

TEST(DelayGuaranteedOnline, RatioApproachesOneWithHorizon) {
  // Fig. 9: the on-line/off-line ratio tends to 1 as n grows.
  const Index L = 50;
  const DelayGuaranteedOnline dg(L);
  double prev_ratio = 1e9;
  for (const Index n : {100, 1'000, 10'000, 100'000}) {
    const double ratio = static_cast<double>(dg.cost(n)) /
                         static_cast<double>(full_cost(L, n));
    EXPECT_GE(ratio, 1.0);
    EXPECT_LE(ratio, prev_ratio * 1.0001) << "n=" << n;  // non-increasing-ish
    prev_ratio = ratio;
  }
  EXPECT_NEAR(prev_ratio, 1.0, 0.01);
}

TEST(DelayGuaranteedOnline, ForestMatchesCostAndVerifies) {
  for (const Index L : {15, 34}) {
    const DelayGuaranteedOnline dg(L);
    for (const Index n : {5, 8, 20, 55, 100}) {
      const MergeForest forest = dg.forest(n);
      EXPECT_EQ(forest.size(), n);
      EXPECT_EQ(forest.full_cost(), dg.cost(n)) << "L=" << L << " n=" << n;
      const plan::MergePlan p = forest.to_plan();
      const plan::PlanReport report = plan::verify(p);
      EXPECT_TRUE(report.ok) << "L=" << L << " n=" << n << ": " << report.first_error;
      EXPECT_EQ(oracles::first_lemma15_mismatch(forest), -1) << "L=" << L << " n=" << n;
      EXPECT_EQ(oracles::first_loose_stream(p, Model::kReceiveTwo), -1)
          << "L=" << L << " n=" << n;
      // The on-line producer's own plan verifies with the same cost and
      // tight truncations, the partial final block's included.
      const plan::MergePlan online = dg.to_plan(n);
      const plan::PlanReport plan_report = plan::verify(online);
      EXPECT_TRUE(plan_report.ok)
          << "L=" << L << " n=" << n << ": " << plan_report.first_error;
      EXPECT_DOUBLE_EQ(plan_report.total_cost, static_cast<double>(dg.cost(n)));
      EXPECT_EQ(oracles::first_loose_stream(online, Model::kReceiveTwo), -1)
          << "L=" << L << " n=" << n;
    }
  }
}

TEST(DelayGuaranteedOnline, StreamLengthLookup) {
  const DelayGuaranteedOnline dg(15);
  const Index horizon = 20;  // 2 full blocks of 8 + partial of 4
  // Block starts are full streams.
  EXPECT_EQ(dg.stream_length(0, horizon), 15);
  EXPECT_EQ(dg.stream_length(8, horizon), 15);
  EXPECT_EQ(dg.stream_length(16, horizon), 15);
  // Within a full block lengths follow the template (tree 0(1 2 3(4) 5(6 7))).
  EXPECT_EQ(dg.stream_length(5, horizon), 9);   // template node 5
  EXPECT_EQ(dg.stream_length(13, horizon), 9);  // same node, second block
  // The final partial block clips z: template node 3 has z=4, but with
  // only arrivals 16..19 alive, node 3's subtree is {3} -> leaf length 3.
  EXPECT_EQ(dg.stream_length(19, horizon), 3);
  EXPECT_THROW((void)dg.stream_length(20, horizon), std::invalid_argument);
  EXPECT_THROW((void)dg.stream_length(-1, horizon), std::invalid_argument);
}

TEST(DelayGuaranteedOnline, StreamLengthsSumToCost) {
  for (const Index L : {15, 100}) {
    const DelayGuaranteedOnline dg(L);
    for (const Index n : {7, 55, 123}) {
      Cost sum = 0;
      for (Index t = 0; t < n; ++t) sum += dg.stream_length(t, n);
      EXPECT_EQ(sum, dg.cost(n)) << "L=" << L << " n=" << n;
    }
  }
}

TEST(DelayGuaranteedOnline, Validation) {
  EXPECT_THROW(DelayGuaranteedOnline(0), std::invalid_argument);
  EXPECT_THROW(DelayGuaranteedOnline(-5), std::invalid_argument);
  const DelayGuaranteedOnline dg(15);
  EXPECT_THROW((void)dg.cost(-1), std::invalid_argument);
  EXPECT_THROW(dg.forest(0), std::invalid_argument);
}

/// A one-object core serving DelayGuaranteedPolicy at `delay` = 1/L.
server::ServerCoreConfig dg_core_config(double delay, double horizon) {
  server::ServerCoreConfig config;
  config.objects = 1;
  config.delay = delay;
  config.horizon = horizon;
  return config;
}

TEST(Server, WaitIsAlwaysWithinOneSlot) {
  DelayGuaranteedPolicy dg;
  const server::ServerCore core(dg_core_config(0.01, 8.0), dg);
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += 0.0137;  // irrational-ish stride hits many slot phases
    const server::Ticket ticket = core.preview_admission(0, t);
    EXPECT_GE(ticket.wait, 0.0);
    EXPECT_LE(ticket.wait, 0.01 + 1e-12);
    EXPECT_NEAR(ticket.playback_start,
                static_cast<double>(ticket.slot + 1) * 0.01, 1e-12);
  }
}

TEST(Server, BoundaryArrivalJoinsStartingStream) {
  DelayGuaranteedPolicy dg;
  const server::ServerCore core(dg_core_config(0.01, 1.0), dg);
  const server::Ticket ticket = core.preview_admission(0, 0.05);  // slot 4's end
  EXPECT_EQ(ticket.slot, 4);
  EXPECT_NEAR(ticket.wait, 0.0, 1e-9);
}

TEST(Server, RejectsOutOfOrderArrivals) {
  DelayGuaranteedPolicy dg;
  server::ServerCore core(dg_core_config(1.0 / 15.0, 2.0), dg);
  (void)core.admit(0, 5.0 / 15.0);
  EXPECT_THROW((void)core.admit(0, 4.0 / 15.0), std::invalid_argument);
  EXPECT_THROW((void)core.admit(0, -1.0), std::invalid_argument);
  EXPECT_THROW((void)core.preview_admission(0, -1.0), std::invalid_argument);
  EXPECT_THROW(server::ServerCore(dg_core_config(0.0, 2.0), dg),
               std::invalid_argument);
}

TEST(Server, ServedProgramsPlayBackCorrectly) {
  // End to end: preview clients over three blocks, then verify the
  // program of each previewed slot on the on-line plan (slot units:
  // media length L, slot duration 1/L).
  const Index L = 15;
  const double delay = 1.0 / static_cast<double>(L);
  const Index horizon = 20;
  DelayGuaranteedPolicy dg;
  const server::ServerCore core(
      dg_core_config(delay, static_cast<double>(horizon) * delay), dg);
  const plan::MergePlan online = DelayGuaranteedOnline(L).to_plan(horizon);
  int clients = 0;
  for (double t = 0.4; t < static_cast<double>(horizon); t += 1.7) {
    const server::Ticket ticket = core.preview_admission(0, t * delay);
    ASSERT_GE(ticket.slot, 0);
    ASSERT_LT(ticket.slot, horizon);
    const plan::ClientReport report =
        plan::verify_client(online, ticket.slot, Model::kReceiveTwo);
    EXPECT_TRUE(report.ok) << report.error;
    ++clients;
  }
  EXPECT_EQ(clients, 12);
}

}  // namespace
}  // namespace smerge
