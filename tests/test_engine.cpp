// Tests for the discrete-event multi-object simulation engine: sharding
// determinism, policy correctness against the analytic costs, delay
// guarantees, and the channel-capacity model.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/full_cost.h"
#include "merging/batching.h"
#include "online/delay_guaranteed.h"
#include "sim/experiment.h"

namespace smerge::sim {
namespace {

EngineConfig small_config() {
  EngineConfig config;
  config.workload.process = ArrivalProcess::kPoisson;
  config.workload.objects = 16;
  config.workload.zipf_exponent = 1.0;
  config.workload.mean_gap = 0.002;
  config.workload.horizon = 5.0;
  config.workload.seed = 17;
  config.delay = 0.02;
  return config;
}

void expect_identical(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.total_arrivals, b.total_arrivals);
  EXPECT_EQ(a.total_streams, b.total_streams);
  // Bit-identical, not approximately equal: the reduction order is fixed.
  EXPECT_EQ(a.streams_served, b.streams_served);
  EXPECT_EQ(a.wait.mean, b.wait.mean);
  EXPECT_EQ(a.wait.p50, b.wait.p50);
  EXPECT_EQ(a.wait.p95, b.wait.p95);
  EXPECT_EQ(a.wait.p99, b.wait.p99);
  EXPECT_EQ(a.wait.max, b.wait.max);
  EXPECT_EQ(a.peak_concurrency, b.peak_concurrency);
  EXPECT_EQ(a.guarantee_violations, b.guarantee_violations);
  EXPECT_EQ(a.capacity_violations, b.capacity_violations);
  EXPECT_EQ(a.per_object, b.per_object);
}

TEST(Engine, BitIdenticalAcrossThreadCounts) {
  for (const bool batched : {false, true}) {
    GreedyMergePolicy policy(merging::DyadicParams{}, batched);
    EngineConfig config = small_config();
    config.threads = 1;
    const EngineResult serial = run_engine(config, policy);
    config.threads = 2;
    const EngineResult two = run_engine(config, policy);
    config.threads = 8;
    const EngineResult eight = run_engine(config, policy);
    expect_identical(serial, two);
    expect_identical(serial, eight);
  }
}

TEST(Engine, DelayGuaranteedMatchesAnalyticCost) {
  // One object, delay 5% -> L = 20 slots, horizon 10 media -> n = 200
  // slots: the engine's DG bandwidth must equal A(L,n)/L.
  EngineConfig config = small_config();
  config.workload.objects = 1;
  config.workload.horizon = 10.0;
  config.delay = 0.05;
  DelayGuaranteedPolicy policy;
  const EngineResult outcome = run_engine(config, policy);
  const DelayGuaranteedOnline dg(20);
  const double analytic = static_cast<double>(dg.cost(200)) / 20.0;
  EXPECT_NEAR(outcome.streams_served, analytic, 1e-9 * analytic);
  EXPECT_EQ(outcome.total_streams, 200);
}

TEST(Engine, DelayGuaranteedCoversFractionalFinalSlot) {
  // Regression: with a horizon that is not a whole number of slots
  // (5.288 / 0.02 = 264.4), a client arriving in the fractional tail
  // maps to slot 264 — the schedule must include that stream instead of
  // admitting to a phantom.
  EngineConfig config = small_config();
  config.workload.objects = 1;
  config.workload.horizon = 5.288;
  config.delay = 0.02;
  DelayGuaranteedPolicy policy;
  const EngineResult outcome = run_engine(config, policy);
  EXPECT_EQ(outcome.total_streams, 265);
  EXPECT_EQ(outcome.guarantee_violations, 0);
}

TEST(Engine, CollectedIntervalsFeedChannelPlanning) {
  EngineConfig config = small_config();
  BatchingPolicy policy;
  const EngineResult bare = run_engine(config, policy);
  EXPECT_TRUE(bare.stream_intervals.empty());

  config.collect_stream_intervals = true;
  const EngineResult collected = run_engine(config, policy);
  ASSERT_EQ(static_cast<Index>(collected.stream_intervals.size()),
            collected.total_streams);
  EXPECT_TRUE(std::is_sorted(collected.stream_intervals.begin(),
                             collected.stream_intervals.end(),
                             [](const StreamInterval& a, const StreamInterval& b) {
                               return a.start < b.start;
                             }));
  // The greedy channel plan over the collected intervals provisions
  // exactly the engine's measured peak.
  const ChannelAssignment plan = assign_channels(collected.stream_intervals);
  EXPECT_EQ(plan.channels_used, collected.peak_concurrency);
}

TEST(Engine, CollectedPlansVerifyForEveryPolicy) {
  // The engine's per-object output as the canonical IR: every shipped
  // policy's plans must pass the universal verifier, reproduce the
  // engine's own aggregates, and respect the delay guarantee.
  EngineConfig config = small_config();
  config.collect_plans = true;
  DelayGuaranteedPolicy dg;
  BatchingPolicy batching;
  GreedyMergePolicy greedy_imm(merging::DyadicParams{}, /*batched=*/false);
  GreedyMergePolicy greedy_bat(merging::DyadicParams{}, /*batched=*/true);
  OnlinePolicy* const policies[] = {&dg, &batching, &greedy_imm, &greedy_bat};
  for (OnlinePolicy* policy : policies) {
    const EngineResult result = run_engine(config, *policy);
    ASSERT_EQ(static_cast<Index>(result.plans.size()), config.workload.objects)
        << policy->name();
    double planned_cost = 0.0;
    Index planned_streams = 0;
    for (std::size_t m = 0; m < result.plans.size(); ++m) {
      const plan::MergePlan& p = result.plans[m];
      const plan::PlanReport report = plan::verify(p);
      EXPECT_TRUE(report.ok)
          << policy->name() << " object " << m << ": " << report.first_error;
      EXPECT_EQ(report.peak_bandwidth, result.per_object[m].peak_concurrency)
          << policy->name() << " object " << m;
      // Waits recorded into the IR never exceed the configured delay
      // (the greedy immediate policy admits at the arrival instant).
      EXPECT_FALSE(server::violates_guarantee(report.max_delay, config.delay))
          << policy->name() << " object " << m;
      planned_cost += report.total_cost;
      planned_streams += p.size();
    }
    EXPECT_NEAR(planned_cost, result.streams_served, 1e-6) << policy->name();
    EXPECT_EQ(planned_streams, result.total_streams) << policy->name();
  }
  // Plans are off by default.
  config.collect_plans = false;
  EXPECT_TRUE(run_engine(config, batching).plans.empty());
}

TEST(Engine, DelayGuaranteedCostIsDemandIndependent) {
  DelayGuaranteedPolicy policy;
  EngineConfig light = small_config();
  light.workload.mean_gap = 0.05;
  EngineConfig heavy = small_config();
  heavy.workload.mean_gap = 0.001;
  heavy.workload.seed = 99;
  const EngineResult a = run_engine(light, policy);
  const EngineResult b = run_engine(heavy, policy);
  EXPECT_DOUBLE_EQ(a.streams_served, b.streams_served);
  EXPECT_EQ(a.peak_concurrency, b.peak_concurrency);
}

TEST(Engine, SimulatedDgRespectsTheorem22Bound) {
  // The satellite cross-check: the simulated on-line cost over the
  // engine, divided by the off-line optimum on the same slotted
  // instance, sits below Theorem 22's 1 + 2L/n (L = 10, n = 150 > L^2+2).
  constexpr Index kL = 10;
  constexpr Index kN = 150;
  EngineConfig config = small_config();
  config.workload.objects = 1;
  config.workload.horizon = 15.0;
  config.delay = 0.1;
  DelayGuaranteedPolicy policy;
  const EngineResult outcome = run_engine(config, policy);
  const double offline =
      static_cast<double>(full_cost(kL, kN)) / static_cast<double>(kL);
  const double ratio = outcome.streams_served / offline;
  EXPECT_GE(ratio, 1.0 - 1e-9);
  EXPECT_LE(ratio, DelayGuaranteedOnline::theorem22_bound(kL, kN));
}

TEST(Engine, GreedyPoliciesMatchLegacyRunners) {
  EngineConfig config = small_config();
  config.workload.objects = 1;
  const auto arrivals = generate_arrivals(config.workload, 0);
  ASSERT_GT(arrivals.size(), 100u);

  GreedyMergePolicy immediate(merging::DyadicParams{}, false);
  const EngineResult imm = run_engine(config, immediate);
  const BandwidthResult legacy_imm = run_dyadic(arrivals);
  EXPECT_NEAR(imm.streams_served, legacy_imm.streams_served,
              1e-9 * legacy_imm.streams_served);
  EXPECT_EQ(imm.peak_concurrency, legacy_imm.peak_concurrency);
  EXPECT_EQ(imm.total_streams, legacy_imm.streams_started);

  GreedyMergePolicy batched(merging::DyadicParams{}, true);
  const EngineResult bat = run_engine(config, batched);
  const BandwidthResult legacy_bat = run_batched_dyadic(arrivals, config.delay);
  EXPECT_NEAR(bat.streams_served, legacy_bat.streams_served,
              1e-9 * legacy_bat.streams_served);
}

TEST(Engine, BatchingPolicyMatchesBatchingCost) {
  EngineConfig config = small_config();
  config.workload.objects = 1;
  const auto arrivals = generate_arrivals(config.workload, 0);
  BatchingPolicy policy;
  const EngineResult outcome = run_engine(config, policy);
  EXPECT_DOUBLE_EQ(outcome.streams_served,
                   merging::batching_cost(arrivals, 1.0, config.delay));
  EXPECT_EQ(outcome.total_streams,
            static_cast<Index>(
                merging::batch_arrivals(arrivals, config.delay).size()));
}

TEST(Engine, WaitGuaranteesHold) {
  EngineConfig config = small_config();

  GreedyMergePolicy immediate(merging::DyadicParams{}, false);
  const EngineResult imm = run_engine(config, immediate);
  EXPECT_EQ(imm.wait.max, 0.0);
  EXPECT_EQ(imm.guarantee_violations, 0);

  for (const bool use_batching_policy : {false, true}) {
    EngineResult outcome;
    if (use_batching_policy) {
      BatchingPolicy policy;
      outcome = run_engine(config, policy);
    } else {
      GreedyMergePolicy policy(merging::DyadicParams{}, true);
      outcome = run_engine(config, policy);
    }
    EXPECT_GT(outcome.wait.p99, 0.0);
    EXPECT_FALSE(server::violates_guarantee(outcome.wait.max, config.delay));
    EXPECT_EQ(outcome.guarantee_violations, 0);
    EXPECT_GE(outcome.wait.p50, 0.0);
    EXPECT_LE(outcome.wait.p50, outcome.wait.p95);
    EXPECT_LE(outcome.wait.p95, outcome.wait.p99);
    EXPECT_LE(outcome.wait.p99, outcome.wait.max);
  }
}

TEST(Engine, PerObjectOutcomesSumToTotals) {
  GreedyMergePolicy policy(merging::DyadicParams{}, true);
  const EngineResult outcome = run_engine(small_config(), policy);
  Index arrivals = 0;
  Index streams = 0;
  double cost = 0.0;
  Index violations = 0;
  Index max_object_peak = 0;
  for (const ObjectOutcome& object : outcome.per_object) {
    arrivals += object.arrivals;
    streams += object.streams;
    cost += object.cost;
    violations += object.violations;
    max_object_peak = std::max(max_object_peak, object.peak_concurrency);
  }
  EXPECT_EQ(arrivals, outcome.total_arrivals);
  EXPECT_EQ(streams, outcome.total_streams);
  EXPECT_NEAR(cost, outcome.streams_served, 1e-9 * cost);
  EXPECT_EQ(violations, outcome.guarantee_violations);
  // The server-wide peak dominates each object's own peak but never the
  // sum of them.
  EXPECT_GE(outcome.peak_concurrency, max_object_peak);
}

TEST(Engine, CapacityViolationsCounted) {
  // Dense arrivals on a catalogue force overlapping full streams; a
  // one-channel server must report saturated stream starts, and the
  // uncapped run must not.
  EngineConfig config = small_config();
  BatchingPolicy policy;
  const EngineResult uncapped = run_engine(config, policy);
  EXPECT_EQ(uncapped.capacity_violations, 0);
  ASSERT_GT(uncapped.peak_concurrency, 1);

  config.channel_capacity = 1;
  const EngineResult capped = run_engine(config, policy);
  EXPECT_GT(capped.capacity_violations, 0);
  // Capacity accounting observes, never rejects: same schedule.
  EXPECT_DOUBLE_EQ(capped.streams_served, uncapped.streams_served);
  EXPECT_EQ(capped.peak_concurrency, uncapped.peak_concurrency);
}

// --- The Section-5 multi-object comparison ---------------------------------

/// A five-movie Zipf catalogue for the Section-5 policy comparison.
EngineConfig catalogue_config(double mean_gap) {
  EngineConfig config;
  config.workload.objects = 5;
  config.workload.zipf_exponent = 1.0;
  config.workload.mean_gap = mean_gap;
  config.workload.horizon = 10.0;
  config.workload.seed = 17;
  config.delay = 0.02;
  return config;
}

TEST(Engine, ArrivalsFollowPopularity) {
  GreedyMergePolicy immediate(merging::DyadicParams{}, /*batched=*/false);
  // Plenty of arrivals for the skew to show.
  const EngineResult r = run_engine(catalogue_config(0.002), immediate);
  EXPECT_GT(r.total_arrivals, 1000);
  // The most popular object receives the most arrivals.
  for (const ObjectOutcome& object : r.per_object) {
    EXPECT_LE(object.arrivals, r.per_object.front().arrivals);
  }
}

TEST(Engine, BatchingReducesDyadicCostWhenDense) {
  // Arrivals far denser than the 0.02 delay: batching to slot ends
  // merges fewer, later streams.
  const EngineConfig config = catalogue_config(0.001);
  GreedyMergePolicy immediate(merging::DyadicParams{}, /*batched=*/false);
  GreedyMergePolicy batched(merging::DyadicParams{}, /*batched=*/true);
  EXPECT_LT(run_engine(config, batched).streams_served,
            run_engine(config, immediate).streams_served);
}

TEST(Engine, DgPeakStableUnderLoadDyadicPeakGrows) {
  // The Section-5 argument: DG caps the peak bandwidth regardless of
  // intensity, while immediate dyadic service scales with demand.
  const EngineConfig light = catalogue_config(0.05);
  const EngineConfig heavy = catalogue_config(0.001);
  DelayGuaranteedPolicy dg;
  EXPECT_EQ(run_engine(light, dg).peak_concurrency,
            run_engine(heavy, dg).peak_concurrency);
  GreedyMergePolicy immediate(merging::DyadicParams{}, /*batched=*/false);
  EXPECT_GT(run_engine(heavy, immediate).peak_concurrency,
            run_engine(light, immediate).peak_concurrency);
}

TEST(Engine, Validation) {
  GreedyMergePolicy policy(merging::DyadicParams{}, false);
  EngineConfig bad_delay = small_config();
  bad_delay.delay = 0.0;
  EXPECT_THROW((void)run_engine(bad_delay, policy), std::invalid_argument);
  EngineConfig bad_threads = small_config();
  bad_threads.threads = 0;
  EXPECT_THROW((void)run_engine(bad_threads, policy), std::invalid_argument);
  EngineConfig bad_capacity = small_config();
  bad_capacity.channel_capacity = -1;
  EXPECT_THROW((void)run_engine(bad_capacity, policy), std::invalid_argument);
  DelayGuaranteedPolicy unprepared;
  EXPECT_THROW((void)unprepared.make_object_policy(0.02, 5.0), std::logic_error);
  // DG's slotted model needs delay = 1/L; slot-incommensurate delays
  // are rejected rather than silently misaligning the schedule. The
  // slot-free policies accept any delay in (0, 1].
  EngineConfig odd_delay = small_config();
  odd_delay.delay = 0.03;
  DelayGuaranteedPolicy dg;
  EXPECT_THROW((void)run_engine(odd_delay, dg), std::invalid_argument);
  GreedyMergePolicy batched_odd(merging::DyadicParams{}, true);
  EXPECT_NO_THROW((void)run_engine(odd_delay, batched_odd));
}

}  // namespace
}  // namespace smerge::sim
