// Compilation/integration test for the umbrella header: a miniature
// end-to-end pipeline written against streammerge.h alone, touching one
// entry point from every subsystem.
#include "streammerge.h"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, EndToEndPipeline) {
  using namespace smerge;

  // Off-line: plan, schedule, assign channels, verify.
  const MergeForest forest = optimal_merge_forest(15, 8);
  const StreamSchedule schedule(forest);
  const ChannelAssignment channels = assign_channels(forest.to_plan());
  EXPECT_EQ(channels.channels_used, schedule.peak_bandwidth());
  EXPECT_TRUE(plan::verify(forest.to_plan()).ok);
  EXPECT_EQ(max_buffer_requirement(forest), 7);
  EXPECT_NE(concrete_diagram(forest).find("A (t=0):"), std::string::npos);

  // On-line: the live core serves Delay Guaranteed with bounded waits;
  // each ticket's slot names its client in the on-line plan.
  DelayGuaranteedPolicy delay_guaranteed;
  server::ServerCoreConfig config;
  config.delay = 1.0 / 15.0;
  config.horizon = 1.0;
  const server::ServerCore core(config, delay_guaranteed);
  const server::Ticket ticket = core.preview_admission(0, 6.25 / 15.0);
  EXPECT_LE(ticket.wait, config.delay);
  EXPECT_EQ(ticket.slot, 6);
  EXPECT_FALSE(plan::client_program(DelayGuaranteedOnline(15).to_plan(15),
                                    ticket.slot, Model::kReceiveTwo)
                   .empty());

  // General arrivals: dyadic vs the off-line optimum, continuously
  // verified.
  const auto arrivals = sim::poisson_arrivals(0.05, 3.0, 7);
  merging::DyadicMerger dyadic(1.0, {});
  for (const double t : arrivals) dyadic.arrive(t);
  const double opt = merging::optimal_general_cost(arrivals, 1.0);
  EXPECT_LE(opt, dyadic.total_cost() + 1e-9);
  EXPECT_TRUE(plan::verify(dyadic.forest().to_plan(), Model::kReceiveTwo).ok);

  // Simulation + utilities.
  const sim::BandwidthResult dg = sim::run_delay_guaranteed(0.05, 10.0);
  EXPECT_GT(dg.streams_served, 0.0);
  util::RunningStats stats;
  stats.add(dg.streams_served);
  EXPECT_EQ(stats.count(), 1);
  util::TextTable table({"metric", "value"});
  table.add_row("streams", dg.streams_served);
  EXPECT_NE(table.to_csv().find("streams"), std::string::npos);
  EXPECT_NEAR(fib::log_phi(fib::kGoldenRatio), 1.0, 1e-12);
}

}  // namespace
