// Tests for the O(1) receiving-program lookup table and Delay Guaranteed
// serving through the live core (Section 4.2's simplicity claim,
// executable): every ticket is a slot lookup whose program is a table
// entry.
#include "online/program_table.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "online/policy.h"
#include "schedule/playback.h"
#include "server/server_core.h"

namespace smerge {
namespace {

TEST(ProgramTable, MatchesPerClientPrograms) {
  // Table entries must equal freshly computed programs for every position
  // of a full block.
  const DelayGuaranteedOnline policy(15);
  const ProgramTable table(policy);
  ASSERT_EQ(table.block_size(), 8);
  std::vector<MergeTree> trees;
  trees.push_back(policy.template_tree());
  const MergeForest block(15, std::move(trees));
  for (Index a = 0; a < 8; ++a) {
    const ReceivingProgram fresh(block, a);
    EXPECT_EQ(table.lookup(a).blocks, fresh.receptions()) << "a=" << a;
    EXPECT_EQ(table.lookup(a).path, fresh.path()) << "a=" << a;
  }
}

TEST(ProgramTable, AbsoluteProgramsShiftByBlock) {
  const DelayGuaranteedOnline policy(15);
  const ProgramTable table(policy);
  // Slot 23 = block 2 (base 16) position 7: the client-H program shifted.
  const std::vector<Reception> abs = table.program_at(23);
  ASSERT_EQ(abs.size(), 3u);
  EXPECT_EQ(abs[0], (Reception{23, 1, 2}));
  EXPECT_EQ(abs[1], (Reception{21, 3, 9}));
  EXPECT_EQ(abs[2], (Reception{16, 10, 15}));
}

TEST(ProgramTable, AbsoluteProgramsMatchForestPrograms) {
  // Against the ground truth on a multi-block DG forest, including the
  // final partial block — the table is static, programs never change.
  const DelayGuaranteedOnline policy(15);
  const ProgramTable table(policy);
  const Index n = 21;  // 2 full blocks + partial block of 5
  const MergeForest forest = policy.forest(n);
  for (Index t = 0; t < n; ++t) {
    const ReceivingProgram fresh(forest, t);
    EXPECT_EQ(table.program_at(t), fresh.receptions()) << "t=" << t;
  }
}

TEST(ProgramTable, LookupValidation) {
  const ProgramTable table{DelayGuaranteedOnline(15)};
  EXPECT_THROW((void)table.lookup(-1), std::out_of_range);
  EXPECT_THROW((void)table.lookup(8), std::out_of_range);
  EXPECT_THROW(table.program_at(-1), std::out_of_range);
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
  // program of each previewed slot against the actual transmission
  // schedule (slot units: media length L, slot duration 1/L).
  const Index L = 15;
  const double delay = 1.0 / static_cast<double>(L);
  const Index horizon = 20;
  DelayGuaranteedPolicy dg;
  const server::ServerCore core(
      dg_core_config(delay, static_cast<double>(horizon) * delay), dg);
  const DelayGuaranteedOnline online(L);
  const ProgramTable table(online);
  const MergeForest forest = online.forest(horizon);
  const StreamSchedule schedule(forest);
  int clients = 0;
  for (double t = 0.4; t < static_cast<double>(horizon); t += 1.7) {
    const server::Ticket ticket = core.preview_admission(0, t * delay);
    ASSERT_GE(ticket.slot, 0);
    ASSERT_LT(ticket.slot, horizon);
    const ReceivingProgram fresh(forest, ticket.slot);
    const ClientReport report =
        verify_client(schedule, fresh, Model::kReceiveTwo);
    EXPECT_TRUE(report.ok) << report.error;
    // The lookup table hands out the same program in O(1).
    EXPECT_EQ(table.program_at(ticket.slot), fresh.receptions());
    ++clients;
  }
  EXPECT_EQ(clients, 12);
}

}  // namespace
}  // namespace smerge
