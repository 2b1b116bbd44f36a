// Tests for the Section 4.2 receiving-program table: Delay Guaranteed
// serving needs only the F_h programs of one block, because every
// client's program on the on-line plan is its block-position entry with
// streams shifted by the block start.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/plan.h"
#include "online/delay_guaranteed.h"
#include "schedule/diagram.h"

namespace smerge {
namespace {

TEST(OneBlockTable, ProgramsAreShiftedEntries) {
  // Section 4.2: the server precomputes one receiving program per slot
  // position of the F_h-slot block and hands each client its entry. On
  // the multi-block plan, slot t's program is the single-block program
  // of t mod F_h with streams shifted by the block start — for every
  // block, including the partial last one, whose shorter truncations
  // still carry every piece.
  for (const Index L : {7, 15, 40}) {
    const DelayGuaranteedOnline dg(L);
    const Index F = dg.block_size();
    const plan::MergePlan block = dg.to_plan(F);
    // Two full blocks, then a final block of every size 1..F.
    for (Index n = 2 * F + 1; n <= 3 * F; ++n) {
      const plan::MergePlan p = dg.to_plan(n);
      for (Index t = 0; t < n; ++t) {
        const Index base = t - t % F;
        const std::vector<plan::Piece> entry =
            plan::client_program(block, t % F, Model::kReceiveTwo);
        const std::vector<plan::Piece> program =
            plan::client_program(p, t, Model::kReceiveTwo);
        ASSERT_EQ(program.size(), entry.size()) << "L=" << L << " n=" << n << " t=" << t;
        for (std::size_t i = 0; i < entry.size(); ++i) {
          EXPECT_EQ(program[i].stream, entry[i].stream + base)
              << "L=" << L << " n=" << n << " t=" << t;
          EXPECT_EQ(program[i].from, entry[i].from) << "L=" << L << " n=" << n << " t=" << t;
          EXPECT_EQ(program[i].to, entry[i].to) << "L=" << L << " n=" << n << " t=" << t;
        }
        const plan::ClientReport report = plan::verify_client(p, t, Model::kReceiveTwo);
        EXPECT_TRUE(report.ok) << report.error;
      }
    }
  }
}

TEST(OneBlockTable, ShiftedEntryOfClientH) {
  // L = 15, F_h = 8: slot 23 is block 2 (base 16) position 7, so its
  // program is the client-H entry shifted by 16 — segment 1..2 from its
  // own stream, 3..9 from stream 21, 10..15 from the block's root.
  const plan::MergePlan p = DelayGuaranteedOnline(15).to_plan(24);
  EXPECT_EQ(program_text(p, 23), "[1,2]<-23 [3,9]<-21 [10,15]<-16");
  // Slots outside the plan have no entry.
  EXPECT_THROW((void)plan::client_program(p, -1, Model::kReceiveTwo), std::out_of_range);
  EXPECT_THROW((void)plan::client_program(p, 24, Model::kReceiveTwo), std::out_of_range);
}

}  // namespace
}  // namespace smerge
