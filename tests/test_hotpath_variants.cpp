// The posted hot path's one contract: lock-free post() ingest and the
// SIMD ledger walks are pure mechanism — for scalar and SIMD kernels, at
// every shard width, a posted run's checkpoint bytes and finished
// snapshot are identical to the serial scalar ingest_trace baseline.
// Exercised over a 540-instance corpus (180 traces x 3 policy families,
// round-robining widths and kernels) plus the full width x family x
// kernel cross-product on fixed instances.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "online/policy.h"
#include "server/server_core.h"
#include "util/simd.h"

namespace {

using namespace smerge;

// The fuzz corpus generator shared with test_plan.cpp / test_recovery.cpp:
// 180 trials of sorted unique arrival times on [0, 8).
std::vector<std::vector<double>> corpus_traces() {
  std::mt19937_64 rng(20260728);
  std::uniform_int_distribution<std::size_t> size_dist(0, 24);
  std::uniform_real_distribution<double> time_dist(0.0, 8.0);
  std::vector<std::vector<double>> traces;
  traces.reserve(180);
  for (int trial = 0; trial < 180; ++trial) {
    const std::size_t n = size_dist(rng);
    std::vector<double> t(n);
    for (double& x : t) x = time_dist(rng);
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    traces.push_back(std::move(t));
  }
  return traces;
}

constexpr bool kKernels[] = {false, true};  ///< SIMD off / on

constexpr unsigned kWidths[] = {1, 2, 4};

// RAII guard: the scalar toggle is process-global, so every run resets
// it even when an assertion throws.
struct ScalarGuard {
  explicit ScalarGuard(bool scalar) { util::simd::force_scalar(scalar); }
  ~ScalarGuard() { util::simd::force_scalar(false); }
};

std::unique_ptr<OnlinePolicy> make_policy(int family) {
  switch (family) {
    case 0: return std::make_unique<DelayGuaranteedPolicy>();
    case 1: return std::make_unique<BatchingPolicy>();
    // SlotKind::kNone: decided at delivery, with no preview contract.
    default:
      return std::make_unique<GreedyMergePolicy>(merging::DyadicParams{},
                                                 /*batched=*/true);
  }
}

server::ServerCoreConfig base_config(unsigned shards) {
  server::ServerCoreConfig config;
  config.objects = 3;
  config.delay = 0.25;  // 1/L with L = 4, so the DG family is happy
  config.horizon = 8.0;
  config.shards = shards;
  return config;
}

void expect_same_snapshot(const server::Snapshot& a, const server::Snapshot& b,
                          const std::string& context) {
  EXPECT_EQ(a.total_arrivals, b.total_arrivals) << context;
  EXPECT_EQ(a.total_streams, b.total_streams) << context;
  EXPECT_EQ(a.streams_served, b.streams_served) << context;
  EXPECT_EQ(a.wait.mean, b.wait.mean) << context;
  EXPECT_EQ(a.wait.p50, b.wait.p50) << context;
  EXPECT_EQ(a.wait.p95, b.wait.p95) << context;
  EXPECT_EQ(a.wait.p99, b.wait.p99) << context;
  EXPECT_EQ(a.wait.max, b.wait.max) << context;
  EXPECT_EQ(a.peak_concurrency, b.peak_concurrency) << context;
  EXPECT_EQ(a.guarantee_violations, b.guarantee_violations) << context;
  EXPECT_EQ(a.per_object, b.per_object) << context;
}

// The baseline everything must match: serial ingest_trace, scalar
// kernels.
struct Reference {
  std::vector<std::uint8_t> checkpoint;
  server::Snapshot snapshot;
};

// Both runs deliver in the same two chunks (split at the global halfway
// index) with a drain after each: mid-run checkpoint bytes include the
// per-object flush cursors and the cost summed in object-id order per
// drain, which follow the drains (the ledger record does not: it is
// canonical) — the cadence is part of the logical state (the WAL
// records every drain), so reference and variant must share it while
// everything else (serial vs posted, scalar vs SIMD) differs.
Reference reference_run(const std::vector<double>& times, int family,
                        unsigned shards) {
  const ScalarGuard guard(true);
  auto policy = make_policy(family);
  server::ServerCore core(base_config(shards), *policy);
  const std::size_t half = times.size() / 2;
  for (const auto& [begin, end] :
       {std::pair<std::size_t, std::size_t>{0, half}, {half, times.size()}}) {
    std::vector<std::vector<double>> per_object(3);
    for (std::size_t i = begin; i < end; ++i) {
      per_object[i % 3].push_back(times[i]);
    }
    for (Index m = 0; m < 3; ++m) {
      core.ingest_trace(m, std::move(per_object[static_cast<std::size_t>(m)]));
    }
    core.drain();
  }
  Reference ref;
  ref.checkpoint = core.checkpoint();
  core.finish();
  ref.snapshot = core.take_snapshot();
  return ref;
}

// One posted run under a kernel choice, byte-compared against the reference:
// checkpoint at the all-delivered quiescent point (the config echo pins
// the shard width, so the reference must share it), snapshot at finish.
void run_variant(const std::vector<double>& times, int family, unsigned shards,
                 bool simd, const Reference& ref, const std::string& context) {
  const ScalarGuard guard(!simd);
  auto policy = make_policy(family);
  server::ServerCore core(base_config(shards), *policy);
  std::size_t posted = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    core.post(static_cast<Index>(i % 3), times[i]);
    if (++posted == times.size() / 2) core.drain();
  }
  core.drain();
  EXPECT_EQ(core.checkpoint(), ref.checkpoint) << context;
  core.finish();
  expect_same_snapshot(core.take_snapshot(), ref.snapshot, context);
}

std::string context_of(int instance, int family, unsigned shards, bool simd) {
  return "instance=" + std::to_string(instance) +
         " family=" + std::to_string(family) +
         " shards=" + std::to_string(shards) + " simd=" + std::to_string(simd);
}

// 180 traces x 3 policy families = 540 instances; width and kernel
// round-robin so every (width, kernel) pair sees dozens of instances
// without running the full cross-product 540 times.
TEST(HotpathVariants, CorpusCheckpointAndSnapshotByteIdentity) {
  const auto traces = corpus_traces();
  int instance = 0;
  for (int family = 0; family < 3; ++family) {
    for (const auto& times : traces) {
      const unsigned shards = kWidths[instance % 3];
      // Kernel flips every third instance, so it cycles against width.
      const bool simd = kKernels[static_cast<std::size_t>(instance / 3) % 2];
      const Reference ref = reference_run(times, family, shards);
      run_variant(times, family, shards, simd, ref,
                  context_of(instance, family, shards, simd));
      ++instance;
    }
  }
  EXPECT_EQ(instance, 540);
}

// The full width x family x kernel cross-product on fixed dense
// instances — every combination, not just the round-robin sample.
TEST(HotpathVariants, FullCrossProductOnFixedInstances) {
  const auto traces = corpus_traces();
  // The two densest corpus traces give every shard a nonempty mailbox
  // at width 4.
  std::vector<std::size_t> picks{0, 0};
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (traces[i].size() > traces[picks[0]].size()) {
      picks[1] = picks[0];
      picks[0] = i;
    } else if (traces[i].size() > traces[picks[1]].size()) {
      picks[1] = i;
    }
  }
  for (const std::size_t pick : picks) {
    const auto& times = traces[pick];
    ASSERT_GE(times.size(), 16u);
    for (int family = 0; family < 3; ++family) {
      for (const unsigned shards : kWidths) {
        const Reference ref = reference_run(times, family, shards);
        for (const bool simd : kKernels) {
          run_variant(times, family, shards, simd, ref,
                      context_of(static_cast<int>(pick), family, shards, simd));
        }
      }
    }
  }
}

}  // namespace
