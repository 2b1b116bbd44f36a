// Tests for the batching front-end and the non-merging baselines.
#include "merging/batching.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>

#include "core/slot_clock.h"
#include "online/policy.h"
#include "sim/arrivals.h"

namespace smerge::merging {
namespace {

TEST(BatchArrivals, QuantizesToIntervalEnds) {
  const std::vector<double> starts = batch_arrivals({0.05, 0.35, 0.41, 0.99}, 0.1);
  EXPECT_EQ(starts, (std::vector<double>{0.1, 0.4, 0.5, 1.0}));
}

TEST(BatchArrivals, DeduplicatesWithinInterval) {
  const std::vector<double> starts = batch_arrivals({0.01, 0.02, 0.09, 0.11}, 0.1);
  EXPECT_EQ(starts, (std::vector<double>{0.1, 0.2}));
}

// Exactly, also where the rounded quotient overshoots: 0.07 / 0.01 is
// 7.000000000000001, which a bare ceil(t / D) put into the next batch.
TEST(BatchArrivals, BoundaryArrivalGetsZeroDelay) {
  EXPECT_EQ(batch_arrivals({0.2}, 0.1), (std::vector<double>{0.2}));
  EXPECT_EQ(batch_arrivals({0.07}, 0.01), (std::vector<double>{0.07}));
}

TEST(BatchArrivals, DelayGuaranteeHolds) {
  const std::vector<double> arrivals = sim::poisson_arrivals(0.03, 50.0, 7);
  const double delay = 0.02;
  const std::vector<double> starts = batch_arrivals(arrivals, delay);
  // Each arrival is served by the first start at or after it, within D.
  for (const double t : arrivals) {
    const auto it = std::lower_bound(starts.begin(), starts.end(), t);
    ASSERT_NE(it, starts.end());
    EXPECT_LT(*it - t, delay + 1e-9);
  }
}

// Every boundary k*D, computed as the workload generators and tests
// write it, maps back to slot k — no epsilon to outgrow.
TEST(BatchArrivals, SlotOfIsExactAtEveryBoundary) {
  std::mt19937_64 rng(20261022);
  std::uniform_real_distribution<double> delay_dist(1e-4, 1.0);
  for (int trial = 0; trial < 200; ++trial) {
    const double d = delay_dist(rng);
    Index misses = 0;
    for (Index k = 0; k <= 100000; ++k) {
      if (slot_of(static_cast<double>(k) * d, d) != k) ++misses;
    }
    EXPECT_EQ(misses, 0) << "d=" << d;
  }
}

// slot_of is monotone and brackets every time between consecutive
// boundaries: slot_start(k - 1) < t <= slot_start(k).
TEST(BatchArrivals, SlotOfBracketsSortedTimes) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> delay_dist(1e-4, 1.0);
  for (int trial = 0; trial < 50; ++trial) {
    const double d = delay_dist(rng);
    std::uniform_real_distribution<double> time_dist(0.0, 2000.0 * d);
    std::vector<double> times(2000);
    for (double& t : times) t = time_dist(rng);
    std::sort(times.begin(), times.end());
    Index prev = 0;
    for (const double t : times) {
      const Index k = slot_of(t, d);
      ASSERT_GE(k, prev) << "d=" << d << " t=" << t;
      ASSERT_LE(t, slot_start(k, d)) << "d=" << d << " t=" << t;
      if (k > 0) {
        ASSERT_LT(slot_start(k - 1, d), t) << "d=" << d << " t=" << t;
      }
      prev = k;
    }
  }
  EXPECT_EQ(slot_of(0.0, 0.1), 0);
  EXPECT_EQ(slot_of(-1.0, 0.1), 0);
}

// Accumulated `t += gap` traces — the constant-rate generator's form,
// drifting off the exact multiples — never yield a negative wait, under
// batching or the Delay Guaranteed slot mapping.
TEST(BatchArrivals, AccumulatedTracesNeverWaitNegative) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> delay_dist(1e-3, 1.0);
  std::uniform_int_distribution<int> ratio_dist(1, 8);
  for (int trial = 0; trial < 100; ++trial) {
    const double d = delay_dist(rng);
    // Gaps that divide D (a constant rate aligned with the slots) and
    // gaps equal to it.
    const double gap = d / ratio_dist(rng);
    for (const double t : sim::constant_arrivals(gap, 2000.0 * gap)) {
      const double start = slot_start(slot_of(t, d), d);
      ASSERT_GE(start - t, 0.0) << "d=" << d << " t=" << t;
      ASSERT_GE(dg_admission(t, d).wait, 0.0) << "d=" << d << " t=" << t;
    }
  }
}

TEST(BatchArrivals, Validation) {
  EXPECT_THROW(batch_arrivals({0.1}, 0.0), std::invalid_argument);
  EXPECT_THROW(batch_arrivals({0.3, 0.2}, 0.1), std::invalid_argument);
  EXPECT_TRUE(batch_arrivals({}, 0.1).empty());
}

TEST(Baselines, UnicastCost) {
  EXPECT_DOUBLE_EQ(unicast_cost({0.1, 0.2, 0.3}, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(unicast_cost({}, 1.0), 0.0);
  EXPECT_THROW((void)unicast_cost({0.1}, 0.0), std::invalid_argument);
}

TEST(Baselines, BatchingCost) {
  // Three nonempty intervals out of the arrivals below.
  EXPECT_DOUBLE_EQ(batching_cost({0.01, 0.02, 0.55, 0.99}, 1.0, 0.1), 3.0);
  // Batching never exceeds unicast.
  const std::vector<double> arrivals = sim::poisson_arrivals(0.01, 30.0, 3);
  EXPECT_LE(batching_cost(arrivals, 1.0, 0.05), unicast_cost(arrivals, 1.0));
}

}  // namespace
}  // namespace smerge::merging
