// Tests for the live serving runtime: the incremental channel ledger
// against the legacy end-of-run reduction, mid-run queries (wait
// histogram percentiles vs exact sorted quantiles, and their
// independence of shard width and drain cadence), capacity-aware admission
// semantics, admission previews, and the pinned snapshot and checkpoint
// bytes.
#include "server/server_core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "server/channel_ledger.h"
#include "server/wire.h"
#include "sim/engine.h"
#include "sim/workload.h"
#include "util/rng.h"
#include "util/snapshot.h"
#include "util/stats.h"
#include "util/wait_histogram.h"

namespace smerge::server {
namespace {

// --- ChannelLedger vs brute force -------------------------------------------

struct Interval {
  double start;
  double end;
  Index object;
};

/// Brute-force occupancy at `t` over half-open intervals.
Index brute_occupancy(const std::vector<Interval>& intervals, double t) {
  Index depth = 0;
  for (const Interval& iv : intervals) {
    if (iv.start <= t && t < iv.end) ++depth;
  }
  return depth;
}

std::vector<Interval> random_intervals(std::uint64_t seed, int count,
                                       double span) {
  util::SplitMix64 rng(seed);
  std::vector<Interval> intervals;
  intervals.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double start = rng.next_double() * span;
    const double length = 0.01 + rng.next_double() * span * 0.3;
    intervals.push_back({start, start + length, static_cast<Index>(i % 7)});
  }
  return intervals;
}

TEST(ChannelLedger, PeakMatchesLegacyEventSweep) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto intervals = random_intervals(seed, 200, 10.0);
    ChannelLedger ledger(10.0, 0.25);
    std::vector<ChannelEvent> events;
    for (const Interval& iv : intervals) {
      ledger.add_interval(iv.start, iv.end, iv.object);
      events.push_back({iv.start, +1});
      events.push_back({iv.end, -1});
    }
    // peak_overlap is the legacy engine's per-object sweep — the ledger
    // must agree exactly, not approximately.
    EXPECT_EQ(ledger.peak(), peak_overlap(events)) << "seed=" << seed;
  }
}

TEST(ChannelLedger, OccupancyMatchesBruteForce) {
  const auto intervals = random_intervals(17, 150, 8.0);
  ChannelLedger ledger(8.0, 0.2);
  for (const Interval& iv : intervals) {
    ledger.add_interval(iv.start, iv.end, iv.object);
  }
  util::SplitMix64 rng(99);
  for (int i = 0; i < 300; ++i) {
    const double t = rng.next_double() * 12.0;  // probes beyond the span too
    EXPECT_EQ(ledger.occupancy_at(t), brute_occupancy(intervals, t))
        << "t=" << t;
  }
  // Interval endpoints are the interesting probes: starts count, ends
  // free the channel at that instant.
  for (const Interval& iv : intervals) {
    EXPECT_EQ(ledger.occupancy_at(iv.start), brute_occupancy(intervals, iv.start));
    EXPECT_EQ(ledger.occupancy_at(iv.end), brute_occupancy(intervals, iv.end));
  }
}

TEST(ChannelLedger, WindowedMaxMatchesBruteForce) {
  const auto intervals = random_intervals(23, 120, 6.0);
  ChannelLedger ledger(6.0, 0.3);
  std::vector<double> edges;
  for (const Interval& iv : intervals) {
    ledger.add_interval(iv.start, iv.end, iv.object);
    edges.push_back(iv.start);
    edges.push_back(iv.end);
  }
  const auto brute_max = [&](double a, double b) {
    // Max over the window = max of the occupancy at `a` and at every
    // event edge inside [a, b).
    Index best = brute_occupancy(intervals, a);
    for (const double e : edges) {
      if (e > a && e < b) best = std::max(best, brute_occupancy(intervals, e));
    }
    return best;
  };
  util::SplitMix64 rng(7);
  for (int i = 0; i < 200; ++i) {
    double a = rng.next_double() * 7.0;
    double b = rng.next_double() * 7.0;
    if (a > b) std::swap(a, b);
    EXPECT_EQ(ledger.max_over(a, b), brute_max(a, b)) << "[" << a << "," << b << ")";
  }
}

TEST(ChannelLedger, IncrementalQueriesStayExactWhileGrowing) {
  // Interleave inserts and queries: laziness must never serve a stale
  // answer.
  const auto intervals = random_intervals(31, 100, 5.0);
  ChannelLedger ledger(5.0, 0.25);
  std::vector<Interval> so_far;
  for (const Interval& iv : intervals) {
    ledger.add_interval(iv.start, iv.end, iv.object);
    so_far.push_back(iv);
    EXPECT_EQ(ledger.occupancy_at(iv.start), brute_occupancy(so_far, iv.start));
    std::vector<ChannelEvent> events;
    for (const Interval& j : so_far) {
      events.push_back({j.start, +1});
      events.push_back({j.end, -1});
    }
    EXPECT_EQ(ledger.peak(), peak_overlap(events));
  }
}

TEST(ChannelLedger, CapacityViolationsMatchLegacyCounting) {
  const auto intervals = random_intervals(41, 180, 9.0);
  ChannelLedger ledger(9.0, 0.5);
  std::vector<ChannelEvent> events;
  for (const Interval& iv : intervals) {
    ledger.add_interval(iv.start, iv.end, iv.object);
    events.push_back({iv.start, +1});
    events.push_back({iv.end, -1});
  }
  // The legacy engine's reduction: sorted sweep counting saturated
  // starts.
  std::sort(events.begin(), events.end(), [](const ChannelEvent& a,
                                             const ChannelEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.delta < b.delta;
  });
  for (const Index capacity : {1, 3, 8, 20}) {
    Index depth = 0;
    Index expected = 0;
    for (const ChannelEvent& e : events) {
      depth += e.delta;
      if (e.delta > 0 && depth > capacity) ++expected;
    }
    EXPECT_EQ(ledger.capacity_violations(capacity), expected)
        << "capacity=" << capacity;
  }
  EXPECT_EQ(ledger.capacity_violations(0), 0);
}

TEST(ChannelLedger, Validation) {
  EXPECT_THROW(ChannelLedger(0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(ChannelLedger(1.0, 0.0), std::invalid_argument);
  ChannelLedger ledger(1.0, 0.1);
  EXPECT_THROW(ledger.add_interval(-1.0, 0.5, 0), std::invalid_argument);
  EXPECT_THROW(ledger.add_interval(0.5, 0.2, 0), std::invalid_argument);
  EXPECT_THROW((void)ledger.max_over(0.7, 0.2), std::invalid_argument);
  EXPECT_EQ(ledger.peak(), 0);
  EXPECT_EQ(ledger.occupancy_at(0.5), 0);
}

// --- ServerCore: mid-run queries vs the end-of-run reduction ----------------

sim::EngineConfig engine_config() {
  sim::EngineConfig config;
  config.workload.process = sim::ArrivalProcess::kPoisson;
  config.workload.objects = 16;
  config.workload.zipf_exponent = 1.0;
  config.workload.mean_gap = 0.002;
  config.workload.horizon = 5.0;
  config.workload.seed = 17;
  config.delay = 0.02;
  return config;
}

TEST(ServerCore, ChunkedIngestMatchesOneShotEngineRun) {
  // Drive the core in four drained chunks with live queries in between;
  // the final snapshot must equal the one-shot engine run bit for bit.
  const sim::EngineConfig config = engine_config();
  GreedyMergePolicy reference_policy(merging::DyadicParams{}, /*batched=*/true);
  const sim::EngineResult reference = run_engine(config, reference_policy);

  GreedyMergePolicy policy(merging::DyadicParams{}, /*batched=*/true);
  auto core_cfg = sim::core_config(config);
  core_cfg.collect_stream_intervals = true;
  ServerCore core(core_cfg, policy);
  const std::vector<double> weights =
      sim::zipf_weights(config.workload.objects, config.workload.zipf_exponent);
  std::vector<std::vector<double>> traces(16);
  for (Index m = 0; m < 16; ++m) {
    traces[static_cast<std::size_t>(m)] = sim::generate_arrivals(
        config.workload, m, weights[static_cast<std::size_t>(m)]);
  }
  Index last_peak = 0;
  for (int chunk = 0; chunk < 4; ++chunk) {
    const double until = config.workload.horizon * (chunk + 1) / 4.0;
    for (Index m = 0; m < 16; ++m) {
      auto& trace = traces[static_cast<std::size_t>(m)];
      std::vector<double> slice;
      while (!trace.empty() && trace.front() <= until) {
        slice.push_back(trace.front());
        trace.erase(trace.begin());
      }
      core.ingest_trace(m, std::move(slice));
    }
    core.drain();
    // Live queries between drains: the peak is monotone and the
    // histogram percentiles lie within its documented relative error of
    // the exact-on-demand ones.
    const LiveStats live = core.live_stats();
    EXPECT_GE(live.peak_channels, last_peak);
    last_peak = live.peak_channels;
    const util::DelayProfile exact = core.wait_profile(/*exact=*/true);
    ASSERT_GT(live.admitted, 100);
    constexpr double kError = util::WaitHistogram::kRelativeError;
    EXPECT_LE(std::abs(live.wait.p50 - exact.p50), kError * exact.p50);
    EXPECT_LE(std::abs(live.wait.p95 - exact.p95), kError * exact.p95);
    EXPECT_LE(std::abs(live.wait.p99 - exact.p99), kError * exact.p99);
    EXPECT_EQ(live.wait.max, exact.max);
    EXPECT_EQ(live.wait.mean, exact.mean);
  }
  core.finish();
  const sim::EngineResult chunked = core.take_snapshot();

  EXPECT_EQ(chunked.total_arrivals, reference.total_arrivals);
  EXPECT_EQ(chunked.total_streams, reference.total_streams);
  EXPECT_EQ(chunked.streams_served, reference.streams_served);
  EXPECT_EQ(chunked.peak_concurrency, reference.peak_concurrency);
  EXPECT_EQ(chunked.wait.mean, reference.wait.mean);
  EXPECT_EQ(chunked.wait.p50, reference.wait.p50);
  EXPECT_EQ(chunked.wait.p95, reference.wait.p95);
  EXPECT_EQ(chunked.wait.p99, reference.wait.p99);
  EXPECT_EQ(chunked.wait.max, reference.wait.max);
  EXPECT_EQ(chunked.per_object, reference.per_object);
  // The mid-run ledger agrees with the legacy interval-based greedy
  // assignment: exactly the measured peak.
  const ChannelAssignment plan = assign_channels(chunked.stream_intervals);
  EXPECT_EQ(plan.channels_used, chunked.peak_concurrency);
}

TEST(ServerCore, LiveWaitStatsIgnoreShardWidthAndDrainCadence) {
  // One trace at shard widths 1/2/4, drained every quarter or every
  // eighth of the horizon: at each drain point the cadences share,
  // live_stats().wait is bit-identical — the merged histogram holds
  // the same counts and the exact fixed-point sum, however the waits
  // reached it.
  const sim::EngineConfig config = engine_config();
  const std::vector<double> weights =
      sim::zipf_weights(config.workload.objects, config.workload.zipf_exponent);
  std::vector<std::vector<double>> traces;
  for (Index m = 0; m < config.workload.objects; ++m) {
    traces.push_back(sim::generate_arrivals(config.workload, m,
                                            weights[static_cast<std::size_t>(m)]));
  }
  const auto live_at_quarters = [&](unsigned shards, int drains) {
    GreedyMergePolicy policy(merging::DyadicParams{}, /*batched=*/true);
    ServerCoreConfig core_cfg = sim::core_config(config);
    core_cfg.shards = shards;
    ServerCore core(core_cfg, policy);
    std::vector<std::size_t> cursor(traces.size(), 0);
    std::vector<LiveStats> quarters;
    for (int d = 1; d <= drains; ++d) {
      const double until = config.workload.horizon * d / drains;
      for (std::size_t m = 0; m < traces.size(); ++m) {
        std::vector<double> slice;
        while (cursor[m] < traces[m].size() && traces[m][cursor[m]] <= until) {
          slice.push_back(traces[m][cursor[m]++]);
        }
        core.ingest_trace(static_cast<Index>(m), std::move(slice));
      }
      core.drain();
      if (d * 4 % drains == 0) quarters.push_back(core.live_stats());
    }
    return quarters;
  };
  const std::vector<LiveStats> reference = live_at_quarters(1, 4);
  ASSERT_EQ(reference.size(), 4u);
  for (const unsigned shards : {1u, 2u, 4u}) {
    for (const int drains : {4, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " drains=" + std::to_string(drains));
      const std::vector<LiveStats> got = live_at_quarters(shards, drains);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].admitted, reference[i].admitted);
        EXPECT_EQ(got[i].wait.mean, reference[i].wait.mean);
        EXPECT_EQ(got[i].wait.p50, reference[i].wait.p50);
        EXPECT_EQ(got[i].wait.p95, reference[i].wait.p95);
        EXPECT_EQ(got[i].wait.p99, reference[i].wait.p99);
        EXPECT_EQ(got[i].wait.max, reference[i].wait.max);
      }
    }
  }
  EXPECT_LT(reference[0].admitted, reference[3].admitted);
}

TEST(ServerCore, FlashCrowdCapacityAccountingMatchesLegacy) {
  // Observe mode on an over-capacity flash crowd: the incremental
  // ledger's saturated-start count must equal the legacy sweep over the
  // collected intervals.
  sim::EngineConfig config = engine_config();
  config.workload.process = sim::ArrivalProcess::kFlashCrowd;
  config.workload.burst_start = 1.0;
  config.workload.burst_duration = 1.0;
  config.workload.burst_multiplier = 10.0;
  config.channel_capacity = 4;
  config.collect_stream_intervals = true;
  BatchingPolicy policy;
  const sim::EngineResult result = run_engine(config, policy);
  ASSERT_GT(result.peak_concurrency, 4);
  ASSERT_GT(result.capacity_violations, 0);

  std::vector<ChannelEvent> events;
  for (const StreamInterval& iv : result.stream_intervals) {
    events.push_back({iv.start, +1});
    events.push_back({iv.end, -1});
  }
  std::sort(events.begin(), events.end(), [](const ChannelEvent& a,
                                             const ChannelEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.delta < b.delta;
  });
  Index depth = 0;
  Index expected = 0;
  for (const ChannelEvent& e : events) {
    depth += e.delta;
    if (e.delta > 0 && depth > config.channel_capacity) ++expected;
  }
  EXPECT_EQ(result.capacity_violations, expected);
}

TEST(ServerCore, SerialAdmitMatchesMailboxPath) {
  // The same arrivals through admit() one by one and through
  // ingest/drain must land on the identical snapshot.
  const sim::EngineConfig config = engine_config();
  const std::vector<double> weights =
      sim::zipf_weights(config.workload.objects, config.workload.zipf_exponent);

  BatchingPolicy policy_a;
  ServerCore serial(sim::core_config(config), policy_a);
  for (Index m = 0; m < config.workload.objects; ++m) {
    for (const double t : sim::generate_arrivals(
             config.workload, m, weights[static_cast<std::size_t>(m)])) {
      const Ticket ticket = serial.admit(m, t);
      EXPECT_TRUE(ticket.admitted);
      EXPECT_GE(ticket.wait, 0.0);
      EXPECT_FALSE(violates_guarantee(ticket.wait, config.delay));
    }
  }
  serial.finish();
  const Snapshot a = serial.take_snapshot();

  BatchingPolicy policy_b;
  ServerCore mailbox(sim::core_config(config), policy_b);
  for (Index m = 0; m < config.workload.objects; ++m) {
    mailbox.ingest_trace(m, sim::generate_arrivals(
                                config.workload, m,
                                weights[static_cast<std::size_t>(m)]));
  }
  mailbox.finish();
  const Snapshot b = mailbox.take_snapshot();

  EXPECT_EQ(a.total_arrivals, b.total_arrivals);
  EXPECT_EQ(a.total_streams, b.total_streams);
  EXPECT_EQ(a.streams_served, b.streams_served);
  EXPECT_EQ(a.peak_concurrency, b.peak_concurrency);
  EXPECT_EQ(a.wait.p99, b.wait.p99);
  EXPECT_EQ(a.per_object, b.per_object);
}

// --- Capacity-aware admission -----------------------------------------------

ServerCoreConfig capacity_config(AdmissionMode mode, Index capacity) {
  ServerCoreConfig config;
  config.objects = 4;
  config.delay = 0.2;  // L = 5 slots per stream
  config.horizon = 12.0;
  config.serve = ServeMode::kSlottedBatching;
  config.channel_capacity = capacity;
  config.admission = mode;
  return config;
}

/// Two clients per slot per object for a few slots: with 4 objects and
/// capacity 2, only two batch streams fit at a time.
std::vector<std::pair<Index, double>> overload_arrivals() {
  std::vector<std::pair<Index, double>> arrivals;
  for (int slot = 0; slot < 10; ++slot) {
    for (Index object = 0; object < 4; ++object) {
      for (int j = 0; j < 2; ++j) {
        arrivals.push_back(
            {object, 0.2 * slot + 0.05 + 0.05 * j + 0.01 * object});
      }
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return arrivals;
}

TEST(ServerCore, RejectModeKeepsPeakWithinBudgetAndGuaranteeIntact) {
  ServerCore core(capacity_config(AdmissionMode::kReject, 2));
  Index admitted = 0;
  Index rejected = 0;
  for (const auto& [object, time] : overload_arrivals()) {
    const Ticket ticket = core.admit(object, time);
    if (ticket.admitted) {
      ++admitted;
      // The acceptance criterion: every admitted client starts within
      // the delay, measured from its (non-deferred) arrival.
      EXPECT_FALSE(violates_guarantee(ticket.wait, 0.2));
      EXPECT_EQ(ticket.guarantee_wait, ticket.wait);
      EXPECT_EQ(ticket.deferred_slots, 0);
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(admitted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_LE(core.peak_channels(), 2);
  core.finish();
  const Snapshot snap = core.take_snapshot();
  EXPECT_EQ(snap.guarantee_violations, 0);
  EXPECT_EQ(snap.capacity_violations, 0);
  EXPECT_EQ(snap.rejected, rejected);
  EXPECT_EQ(snap.total_arrivals - snap.rejected,
            static_cast<Index>(admitted));
}

TEST(ServerCore, DeferModeAdmitsMoreAndRepromisesTheDelay) {
  ServerCoreConfig config = capacity_config(AdmissionMode::kDefer, 2);
  config.max_defer_slots = 8;
  ServerCore defer_core(config);
  ServerCore reject_core(capacity_config(AdmissionMode::kReject, 2));
  Index deferred_clients = 0;
  for (const auto& [object, time] : overload_arrivals()) {
    const Ticket ticket = defer_core.admit(object, time);
    (void)reject_core.admit(object, time);
    if (ticket.admitted) {
      // The guarantee re-runs from the deferred slot; queueing time
      // stays visible in `wait`.
      EXPECT_FALSE(violates_guarantee(ticket.guarantee_wait, 0.2));
      if (ticket.deferred_slots > 0) {
        ++deferred_clients;
        EXPECT_GT(ticket.wait, ticket.guarantee_wait);
        EXPECT_NEAR(ticket.decision_time, 0.2 * (ticket.slot + ticket.deferred_slots),
                    1e-12);
      }
    }
  }
  EXPECT_GT(deferred_clients, 0);
  EXPECT_LE(defer_core.peak_channels(), 2);
  defer_core.finish();
  reject_core.finish();
  const Snapshot deferred = defer_core.take_snapshot();
  const Snapshot rejected = reject_core.take_snapshot();
  EXPECT_EQ(deferred.capacity_violations, 0);
  EXPECT_GT(deferred.deferrals, 0);
  // Deferral trades waiting for service: strictly fewer rejections.
  EXPECT_LT(deferred.rejected, rejected.rejected);
}

TEST(ServerCore, DegradeModeNeverRejectsAndStaysWithinBudget) {
  ServerCore core(capacity_config(AdmissionMode::kDegrade, 2));
  Index degraded = 0;
  for (const auto& [object, time] : overload_arrivals()) {
    const Ticket ticket = core.admit(object, time);
    ASSERT_TRUE(ticket.admitted);
    if (ticket.degraded) ++degraded;
  }
  EXPECT_GT(degraded, 0);
  EXPECT_LE(core.peak_channels(), 2);
  core.finish();
  const Snapshot snap = core.take_snapshot();
  EXPECT_EQ(snap.rejected, 0);
  EXPECT_EQ(snap.capacity_violations, 0);
  EXPECT_EQ(snap.total_arrivals, 80);
  // Degrading trades the guarantee for service: the coalesced batches
  // breach the per-client delay and the core says so.
  EXPECT_GT(snap.guarantee_violations, 0);
}

TEST(ServerCore, ObserveModeCountsInsteadOfRejecting) {
  ServerCore core(capacity_config(AdmissionMode::kObserve, 2));
  for (const auto& [object, time] : overload_arrivals()) {
    const Ticket ticket = core.admit(object, time);
    ASSERT_TRUE(ticket.admitted);
    EXPECT_FALSE(violates_guarantee(ticket.wait, 0.2));
  }
  EXPECT_GT(core.peak_channels(), 2);
  core.finish();
  const Snapshot snap = core.take_snapshot();
  EXPECT_EQ(snap.rejected, 0);
  EXPECT_GT(snap.capacity_violations, 0);
  EXPECT_EQ(snap.guarantee_violations, 0);
}

TEST(ServerCore, Validation) {
  ServerCoreConfig config;
  config.objects = 0;
  EXPECT_THROW(ServerCore{config}, std::invalid_argument);
  config = ServerCoreConfig{};
  config.serve = ServeMode::kPolicy;
  EXPECT_THROW(ServerCore{config}, std::invalid_argument);  // needs a policy
  BatchingPolicy policy;
  config = ServerCoreConfig{};
  config.admission = AdmissionMode::kReject;
  config.channel_capacity = 4;
  EXPECT_THROW(ServerCore(config, policy), std::invalid_argument);  // kPolicy
  config.serve = ServeMode::kSlottedBatching;
  config.channel_capacity = 0;
  EXPECT_THROW(ServerCore{config}, std::invalid_argument);  // needs a budget
  config.channel_capacity = 4;
  ServerCore ok{config};
  EXPECT_THROW((void)ok.admit(-1, 0.5), std::out_of_range);
  EXPECT_THROW((void)ok.admit(0, -0.5), std::invalid_argument);
  (void)ok.admit(0, 1.0);
  EXPECT_THROW((void)ok.admit(0, 0.5), std::invalid_argument);  // unsorted
  EXPECT_THROW(ok.ingest_trace(0, {2.0}), std::invalid_argument);  // slotted mode
  ok.finish();
  EXPECT_THROW((void)ok.admit(0, 2.0), std::logic_error);
  config = ServerCoreConfig{};
  ServerCore generic(config, policy);
  EXPECT_THROW((void)generic.take_snapshot(), std::logic_error);
}

// --- Admission preview vs the drained decision ------------------------------

// The fuzz corpus shared with test_plan.cpp / test_recovery.cpp: 180
// trials of sorted unique arrival times on [0, 8).
std::vector<std::vector<double>> preview_corpus() {
  std::mt19937_64 rng(20260728);
  std::uniform_int_distribution<std::size_t> size_dist(0, 24);
  std::uniform_real_distribution<double> time_dist(0.0, 8.0);
  std::vector<std::vector<double>> traces(180);
  for (auto& t : traces) {
    t.resize(size_dist(rng));
    for (double& x : t) x = time_dist(rng);
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
  }
  return traces;
}

ServerCoreConfig preview_config(Index objects) {
  ServerCoreConfig config;
  config.objects = objects;
  config.delay = 0.25;  // 1/L with L = 4, as DelayGuaranteedPolicy needs
  config.horizon = 8.0;
  config.collect_plans = true;
  return config;
}

/// The stream of `plan` that starts exactly at `playback`, or -1.
Index stream_starting_at(const plan::MergePlan& plan, double playback) {
  const auto starts = plan.start();
  const auto it = std::find(starts.begin(), starts.end(), playback);
  return it == starts.end() ? -1 : static_cast<Index>(it - starts.begin());
}

// Every preview the wire stamps must be the decision the drain records.
// One arrival per object makes each admission observable on its own:
// the object's max wait is that client's wait, and its plan holds the
// stream it joined, whose recorded delay is that wait. The same trace
// on one object then checks the batching cursor across a whole run.
TEST(ServerCore, PreviewMatchesDrainedAdmissionForSlottedPolicies) {
  const auto traces = preview_corpus();
  DelayGuaranteedPolicy dg;
  BatchingPolicy batching;
  int previews = 0;
  for (OnlinePolicy* policy : {static_cast<OnlinePolicy*>(&dg),
                               static_cast<OnlinePolicy*>(&batching)}) {
    const bool is_dg = policy == &dg;
    for (std::size_t trial = 0; trial < traces.size(); ++trial) {
      const std::vector<double>& times = traces[trial];
      if (times.empty()) continue;
      SCOPED_TRACE(policy->name() + " trial=" + std::to_string(trial));
      const auto n = static_cast<Index>(times.size());

      ServerCore spread(preview_config(n), *policy);
      std::vector<Ticket> tickets;
      for (Index m = 0; m < n; ++m) {
        tickets.push_back(
            spread.preview_admission(m, times[static_cast<std::size_t>(m)]));
        spread.post(m, times[static_cast<std::size_t>(m)]);
      }
      spread.drain();
      spread.finish();
      const Snapshot snap = spread.take_snapshot();
      for (Index m = 0; m < n; ++m) {
        const Ticket& t = tickets[static_cast<std::size_t>(m)];
        const plan::MergePlan& plan = snap.plans[static_cast<std::size_t>(m)];
        EXPECT_TRUE(t.admitted);
        EXPECT_EQ(t.object, m);
        EXPECT_EQ(t.wait, t.playback_start - t.arrival);
        EXPECT_EQ(t.guarantee_wait, t.wait);
        EXPECT_EQ(snap.per_object[static_cast<std::size_t>(m)].max_wait, t.wait);
        const Index stream = stream_starting_at(plan, t.playback_start);
        ASSERT_GE(stream, 0) << "no stream starts at the previewed playback";
        EXPECT_EQ(plan.delay()[static_cast<std::size_t>(stream)], t.wait);
        // DG's stream k starts at slot k's end, so the stream the client
        // joined is the previewed slot; batching assigns no slot.
        EXPECT_EQ(t.slot, is_dg ? stream : Index{-1});
        ++previews;
      }

      ServerCore single(preview_config(1), *policy);
      std::vector<Ticket> queued;
      for (const double t : times) {
        queued.push_back(single.preview_admission(0, t));
        single.post(0, t);
      }
      single.drain();
      single.finish();
      const Snapshot one = single.take_snapshot();
      const plan::MergePlan& plan = one.plans[0];
      std::vector<double> stream_wait(static_cast<std::size_t>(plan.size()), 0.0);
      double max_wait = 0.0;
      for (const Ticket& t : queued) {
        const Index stream = stream_starting_at(plan, t.playback_start);
        ASSERT_GE(stream, 0) << "no stream starts at the previewed playback";
        double& w = stream_wait[static_cast<std::size_t>(stream)];
        w = std::max(w, t.wait);
        max_wait = std::max(max_wait, t.wait);
      }
      for (Index s = 0; s < plan.size(); ++s) {
        EXPECT_EQ(plan.delay()[static_cast<std::size_t>(s)],
                  stream_wait[static_cast<std::size_t>(s)]);
      }
      EXPECT_EQ(one.wait.max, max_wait);
    }
  }
  EXPECT_GT(previews, 1000);
}

TEST(ServerCore, PreviewLeavesDrainDecidedPoliciesOpen) {
  GreedyMergePolicy greedy(merging::DyadicParams{}, /*batched=*/true);
  ServerCore core(preview_config(2), greedy);
  for (const auto& times : preview_corpus()) {
    for (const double t : times) {
      const Ticket ticket = core.preview_admission(1, t);
      EXPECT_TRUE(ticket.admitted);
      EXPECT_EQ(ticket.object, 1);
      EXPECT_EQ(ticket.arrival, t);
      EXPECT_EQ(ticket.decision_time, t);
      EXPECT_EQ(ticket.slot, -1);
      EXPECT_EQ(ticket.playback_start, -1.0);
      EXPECT_EQ(ticket.wait, -1.0);
      EXPECT_EQ(ticket.guarantee_wait, -1.0);
    }
  }
  EXPECT_THROW((void)core.preview_admission(2, 0.0), std::out_of_range);
  EXPECT_THROW((void)core.preview_admission(0, -1.0), std::invalid_argument);
}

// --- Slot tickets at slot boundaries ---------------------------------------

// Both slot tickets a client can be handed — the preview the wire stamps
// and the serial admit() — agree field for field and never report a
// negative wait (the wire's "decided at drain" sentinel), also for
// arrivals a hair past a slot boundary: dg_slot_of serves those from the
// stream starting on that boundary, and batch_start_of can round to a
// start just below them (0.03 + 1 ulp at delay 0.01). A slotted-batching
// core admits by the DG slot mapping, so it must preview by it too.
TEST(ServerCore, SlotTicketsMatchAdmitAtBoundaries) {
  std::vector<std::vector<double>> traces = preview_corpus();
  traces.push_back(
      {0.0, std::nextafter(0.03, 1.0), 0.05 + 1e-16, 0.07, 0.3 + 5e-17});
  ServerCoreConfig config;
  config.objects = static_cast<Index>(traces.size());
  config.delay = 0.01;
  config.horizon = 8.0;
  DelayGuaranteedPolicy dg;
  ServerCore dg_core(config, dg);
  BatchingPolicy batching;
  ServerCore batching_core(config, batching);
  config.serve = ServeMode::kSlottedBatching;  // observe: admits everything
  ServerCore slotted_core(config);
  int tickets = 0;
  for (ServerCore* core : {&dg_core, &batching_core, &slotted_core}) {
    const bool slotted = core == &slotted_core;
    for (Index m = 0; m < config.objects; ++m) {
      for (const double t : traces[static_cast<std::size_t>(m)]) {
        SCOPED_TRACE(std::string(core == &dg_core         ? "dg"
                                 : core == &batching_core ? "batching"
                                                          : "slotted") +
                     " object=" + std::to_string(m) + " t=" +
                     std::to_string(t));
        const Ticket preview = core->preview_admission(m, t);
        const Ticket admitted = core->admit(m, t);
        EXPECT_EQ(preview.admitted, admitted.admitted);
        EXPECT_EQ(preview.object, admitted.object);
        EXPECT_EQ(preview.arrival, admitted.arrival);
        EXPECT_EQ(preview.decision_time, admitted.decision_time);
        EXPECT_EQ(preview.playback_start, admitted.playback_start);
        EXPECT_EQ(preview.wait, admitted.wait);
        EXPECT_EQ(preview.guarantee_wait, admitted.guarantee_wait);
        EXPECT_EQ(preview.deferred_slots, admitted.deferred_slots);
        EXPECT_EQ(preview.degraded, admitted.degraded);
        // The policy path's admit() assigns no slot; the slotted one does.
        if (slotted) {
          EXPECT_EQ(preview.slot, admitted.slot);
        }
        // With the fields equal, this holds for the preview too.
        EXPECT_GE(admitted.wait, 0.0);
        EXPECT_GE(admitted.guarantee_wait, 0.0);
        ++tickets;
      }
    }
  }
  EXPECT_GT(tickets, 6000);
}

// --- The finish oracle, recorded digests ------------------------------------

// Small fixed runs whose snapshot digests were recorded before the
// slotted Delay Guaranteed serving mode was retired (the digests of the
// three policy runs date back to before finish() gained its
// bucket-partitioned ledger fill and selection-based quantiles); their
// mid-run checkpoint bytes were re-recorded for smerge-ckpt-v3 (the
// canonical ledger record). Every shard width must still land on the
// same digest: the fold order, the ledger's canonical event order and
// the nearest-rank percentiles are unchanged.
enum class DigestRun {
  kGreedyBatched,
  kDgPolicy,
  kSlottedBatchingDefer,
  kSessions
};

sim::WorkloadConfig digest_workload() {
  sim::WorkloadConfig workload;
  workload.objects = 24;
  workload.zipf_exponent = 1.0;
  workload.mean_gap = 0.002;
  workload.horizon = 4.0;
  workload.seed = 29;
  return workload;
}

/// Drives one pinned run to its end. `mid_checkpoint`, when given,
/// receives a checkpoint taken partway through the run.
Snapshot digest_snapshot(DigestRun run, unsigned shards,
                         std::vector<std::uint8_t>* mid_checkpoint = nullptr) {
  const sim::WorkloadConfig workload = digest_workload();
  const std::vector<double> weights =
      sim::zipf_weights(workload.objects, workload.zipf_exponent);
  ServerCoreConfig config;
  config.objects = workload.objects;
  config.delay = 0.02;
  config.horizon = workload.horizon;
  config.shards = shards;
  GreedyMergePolicy greedy(merging::DyadicParams{}, /*batched=*/true);
  DelayGuaranteedPolicy dg;
  std::unique_ptr<ServerCore> core;
  switch (run) {
    case DigestRun::kGreedyBatched:
      config.channel_capacity = 6;  // observe mode: counts saturated starts
      core = std::make_unique<ServerCore>(config, greedy);
      break;
    case DigestRun::kDgPolicy:
      core = std::make_unique<ServerCore>(config, dg);
      break;
    case DigestRun::kSlottedBatchingDefer:
      config.serve = ServeMode::kSlottedBatching;
      config.admission = AdmissionMode::kDefer;
      config.channel_capacity = 280;
      core = std::make_unique<ServerCore>(config);
      break;
    case DigestRun::kSessions:
      config.enable_sessions = true;
      core = std::make_unique<ServerCore>(config, greedy);
      break;
  }
  const auto capture = [&] {
    if (mid_checkpoint != nullptr) *mid_checkpoint = core->checkpoint();
  };
  if (run == DigestRun::kSlottedBatchingDefer) {
    // The serial live path, in global arrival order.
    std::vector<std::pair<double, Index>> order;
    for (Index m = 0; m < workload.objects; ++m) {
      for (const double t : sim::generate_arrivals(
               workload, m, weights[static_cast<std::size_t>(m)])) {
        order.emplace_back(t, m);
      }
    }
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (i == order.size() / 2) capture();
      (void)core->admit(order[i].second, order[i].first);
    }
  } else if (run == DigestRun::kSessions) {
    sim::SessionChurnConfig churn;
    churn.abandon_rate = 0.25;
    churn.pause_rate = 0.15;
    churn.seek_rate = 0.1;
    for (Index m = 0; m < workload.objects; ++m) {
      core->ingest_session_trace(
          m, sim::generate_sessions(workload, churn, m,
                                    weights[static_cast<std::size_t>(m)]));
    }
    core->drain();  // what finish() would do first
    capture();
  } else {
    // Three waves, the first two ending in live queries.
    for (int wave = 0; wave < 3; ++wave) {
      const double lo = workload.horizon * wave / 3.0;
      const double hi = workload.horizon * (wave + 1) / 3.0;
      for (Index m = 0; m < workload.objects; ++m) {
        std::vector<double> slice;
        for (const double t : sim::generate_arrivals(
                 workload, m, weights[static_cast<std::size_t>(m)])) {
          if (t >= lo && (t < hi || wave == 2)) slice.push_back(t);
        }
        core->ingest_trace(m, std::move(slice));
      }
      core->drain();
      if (wave < 2) (void)core->live_stats();
      if (wave == 1) capture();
    }
  }
  core->finish();
  return core->take_snapshot();
}

struct PinnedRun {
  DigestRun run;
  const char* name;
  std::uint64_t digest;      ///< snapshot_digest after finish()
  std::uint64_t checkpoint;  ///< fnv1a64 of the mid-run checkpoint, shards 1
};

constexpr PinnedRun kPinnedRuns[] = {
    {DigestRun::kGreedyBatched, "greedy-batched", 0xcc4f567a182347d6ull,
     0x01ea5d1d1080ccafull},
    {DigestRun::kDgPolicy, "dg-policy", 0xb3721ed08361dab0ull,
     0xc0a5a3170b3b6ec0ull},
    {DigestRun::kSlottedBatchingDefer, "slotted-batching-defer",
     0x5f8a23071d882bebull, 0x29605e7805a71562ull},
    {DigestRun::kSessions, "sessions", 0xe3a2656da12601abull,
     0x447bb6b0e94b6b65ull},
};

TEST(ServerCore, FinishDigestsArePinned) {
  for (const PinnedRun& c : kPinnedRuns) {
    for (const unsigned shards : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(c.name) + " shards=" + std::to_string(shards));
      const Snapshot snap = digest_snapshot(c.run, shards);
      EXPECT_EQ(snapshot_digest(snap), c.digest);
      // Each run exercises the path it pins.
      if (c.run == DigestRun::kGreedyBatched) {
        EXPECT_GT(snap.capacity_violations, 0);
      }
      if (c.run == DigestRun::kSlottedBatchingDefer) {
        EXPECT_GT(snap.deferrals, 0);
        EXPECT_GT(snap.rejected, 0);
      }
      if (c.run == DigestRun::kSessions) {
        EXPECT_GT(snap.plan_truncations, 0);
        EXPECT_GT(snap.plan_reroots, 0);
      }
    }
  }
}

// The checkpoint bytes themselves — config echo, counters, wait
// histogram, ledger and every object's record — for each pinned run, so a layout
// change shows across commits, not only as a save/restore round trip.
TEST(ServerCore, CheckpointBytesArePinned) {
  for (const PinnedRun& c : kPinnedRuns) {
    SCOPED_TRACE(c.name);
    std::vector<std::uint8_t> frame;
    (void)digest_snapshot(c.run, 1, &frame);
    ASSERT_FALSE(frame.empty());
    EXPECT_EQ(util::fnv1a64(frame), c.checkpoint);
  }
}

// smerge-ckpt-v2 replaced v1's P² marker sets with the wait histogram
// and dropped the retired slotted Delay Guaranteed and bucket-width
// positions; v3 dropped v2's ledger sort cursors and dirty list and
// writes each bucket in canonical order. Older frames are refused
// outright. The retired mode's serve byte (1) is still a config
// mismatch.
TEST(ServerCore, CheckpointV1FramesAreRefused) {
  ServerCoreConfig config;
  config.serve = ServeMode::kSlottedBatching;
  const std::vector<std::uint8_t> frame = ServerCore(config).checkpoint();
  util::SnapshotReader reader = util::SnapshotReader::open(frame, "smerge-ckpt-v3");
  const auto body = reader.raw(reader.remaining());
  const auto restore_as = [&](std::string_view schema, std::size_t at,
                              std::uint8_t byte) {
    std::vector<std::uint8_t> payload(body.begin(), body.end());
    payload[at] = byte;
    util::SnapshotWriter w;
    w.raw(payload);
    (void)ServerCore(config).restore_state(w.frame(schema));
  };
  // The serve byte follows objects, delay, horizon and shards.
  const std::size_t serve = 32;
  ASSERT_EQ(body[serve], 2);
  EXPECT_NO_THROW(restore_as("smerge-ckpt-v3", serve, 2));
  const auto refusal = [&](std::string_view schema, std::uint8_t serve_byte) {
    try {
      restore_as(schema, serve, serve_byte);
    } catch (const util::SnapshotError& e) {
      return std::string(e.what());
    }
    return std::string("restored");
  };
  EXPECT_NE(refusal("smerge-ckpt-v1", 2).find("schema mismatch"), std::string::npos);
  EXPECT_NE(refusal("smerge-ckpt-v2", 2).find("schema mismatch"), std::string::npos);
  EXPECT_NE(refusal("smerge-ckpt-v3", 1).find("config mismatch: serve"),
            std::string::npos);
}

// The merged histogram must count exactly the tallied waits of the
// object records that follow it; restore refuses a frame where it does
// not.
TEST(ServerCore, CheckpointRefusesAHistogramThatDisagreesWithTheWaits) {
  ServerCoreConfig config;
  config.serve = ServeMode::kSlottedBatching;
  ServerCore core(config);
  for (int i = 0; i < 5; ++i) (void)core.admit(0, 0.3 * i);
  const std::vector<std::uint8_t> frame = core.checkpoint();
  util::SnapshotReader reader = util::SnapshotReader::open(frame, "smerge-ckpt-v3");
  const auto body = reader.raw(reader.remaining());
  // The histogram's zero count (u64) follows the 85-byte config echo,
  // the WAL cursor, the empty driver blob's length and seven counters.
  const std::size_t zeros = 85 + 8 + 8 + 7 * 8;
  std::vector<std::uint8_t> payload(body.begin(), body.end());
  ASSERT_LT(payload[zeros], 0xff);
  ++payload[zeros];
  util::SnapshotWriter w;
  w.raw(payload);
  try {
    (void)ServerCore(config).restore_state(w.frame("smerge-ckpt-v3"));
    ADD_FAILURE() << "a histogram with one extra count was restored";
  } catch (const util::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("wait histogram disagrees"), std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW((void)ServerCore(config).restore_state(frame));
}

// Each object's recorder holds (+1 start, -1 end) pairs, which the cost
// fold and the ledger fill read two at a time; restore refuses a frame
// whose events are not such pairs.
TEST(ServerCore, CheckpointRefusesStreamEventsThatAreNotPairs) {
  ServerCoreConfig config;
  config.serve = ServeMode::kSlottedBatching;
  ServerCore core(config);
  const Ticket ticket = core.admit(0, 0.3);
  const std::vector<std::uint8_t> frame = core.checkpoint();
  util::SnapshotReader reader = util::SnapshotReader::open(frame, "smerge-ckpt-v3");
  const auto body = reader.raw(reader.remaining());
  // Object 0's record: its event count (2), then the start and its +1.
  // The ledger files the same time beside the object id, not a delta.
  util::SnapshotWriter needle;
  needle.u64(2);
  needle.f64(ticket.playback_start);
  needle.i64(1);
  const auto it = std::search(body.begin(), body.end(), needle.payload().begin(),
                              needle.payload().end());
  ASSERT_NE(it, body.end());
  const auto at = static_cast<std::size_t>(it - body.begin());
  const auto refusal = [&](std::vector<std::uint8_t> payload) {
    util::SnapshotWriter w;
    w.raw(payload);
    try {
      (void)ServerCore(config).restore_state(w.frame("smerge-ckpt-v3"));
    } catch (const util::SnapshotError& e) {
      return std::string(e.what());
    }
    return std::string("restored");
  };
  const std::vector<std::uint8_t> intact(body.begin(), body.end());
  EXPECT_EQ(refusal(intact), "restored");
  // A delta of 3 in place of the start's +1.
  std::vector<std::uint8_t> bad_delta = intact;
  bad_delta[at + 16] = 3;
  EXPECT_NE(refusal(bad_delta).find("(+1, -1) pair"), std::string::npos);
  // A trailing unpaired +1 after the pair, the count raised to match.
  std::vector<std::uint8_t> unpaired = intact;
  util::SnapshotWriter extra;
  extra.f64(ticket.playback_start + 0.5);
  extra.i64(1);
  unpaired.insert(unpaired.begin() + static_cast<std::ptrdiff_t>(at + 8 + 32),
                  extra.payload().begin(), extra.payload().end());
  unpaired[at] = 3;
  EXPECT_NE(refusal(unpaired).find("unpaired stream event"), std::string::npos);
}

}  // namespace
}  // namespace smerge::server
