// Tests for the lock-free hot-path ingest: the bounded MPSC ring and
// its never-drop spill mailbox (util/mpsc_ring.h), multi-producer
// interleaving under real threads, and the drain-equivalence contract
// — ring-fed ServerCore snapshots bit-identical to the serial
// ingest_trace baseline across shard widths and ring sizes.
#include "util/mpsc_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "online/policy.h"
#include "server/server_core.h"
#include "sim/engine.h"

namespace smerge {
namespace {

struct Tagged {
  std::uint32_t producer = 0;
  std::uint32_t seq = 0;
};

// --- Ring basics ------------------------------------------------------------

TEST(MpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(util::MpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(util::MpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(util::MpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(util::MpscRing<int>(1024).capacity(), 1024u);
  EXPECT_EQ(util::MpscRing<int>(1025).capacity(), 2048u);
  EXPECT_THROW(util::MpscRing<int>(0), std::invalid_argument);
}

TEST(MpscRing, FifoAndFullDetection) {
  util::MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full, element not enqueued
  EXPECT_TRUE(ring.has_published());

  std::vector<int> out;
  EXPECT_EQ(ring.drain(out), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_FALSE(ring.has_published());

  // Slots recycle: the ring is reusable for many times its capacity.
  out.clear();
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(ring.try_push(round * 3 + i));
    EXPECT_EQ(ring.drain(out), 3u);
  }
  for (int i = 0; i < 30; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(MpscMailbox, OverflowSpillsInOrderAndNothingDrops) {
  util::MpscMailbox<int> box(4);
  for (int i = 0; i < 11; ++i) box.push(i);  // 4 in the ring, 7 spilled
  EXPECT_EQ(box.spilled(), 7u);
  EXPECT_TRUE(box.has_items());

  // Single-producer drain order: the ring's range first, then the
  // spill, each FIFO — so one producer's elements come back in push
  // order here (ring filled first, spill strictly after).
  std::vector<int> out;
  EXPECT_EQ(box.drain(out), 11u);
  EXPECT_EQ(out.size(), 11u);
  for (int i = 0; i < 11; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
  EXPECT_FALSE(box.has_items());

  // The spill counter is monotone across drains (pressure telemetry).
  box.push(42);
  out.clear();
  EXPECT_EQ(box.drain(out), 1u);
  EXPECT_EQ(box.spilled(), 7u);
}

// --- Multi-producer interleaving fuzz ---------------------------------------

TEST(MpscMailbox, ConcurrentProducersDeliverEverythingExactlyOnce) {
  constexpr unsigned kProducers = 4;
  constexpr std::uint32_t kPerProducer = 20'000;
  // Small ring: the consumer races the producers, so both the ring and
  // the spill path are exercised heavily.
  util::MpscMailbox<Tagged> box(256);

  std::atomic<unsigned> remaining{kProducers};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, &remaining, p] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) box.push({p, i});
      remaining.fetch_sub(1, std::memory_order_release);
    });
  }

  std::vector<Tagged> received;
  received.reserve(kProducers * kPerProducer);
  while (remaining.load(std::memory_order_acquire) > 0) {
    box.drain(received);
    std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();
  box.drain(received);

  ASSERT_EQ(received.size(), kProducers * kPerProducer);
  // Exactly-once: per producer, the multiset of sequence numbers is
  // {0, ..., n-1} — sort by (producer, seq) and demand the identity.
  std::sort(received.begin(), received.end(),
            [](const Tagged& a, const Tagged& b) {
              if (a.producer != b.producer) return a.producer < b.producer;
              return a.seq < b.seq;
            });
  std::size_t k = 0;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    for (std::uint32_t i = 0; i < kPerProducer; ++i, ++k) {
      ASSERT_EQ(received[k].producer, p);
      ASSERT_EQ(received[k].seq, i);
    }
  }
}

TEST(MpscMailbox, RingPathPreservesPerProducerFifo) {
  constexpr unsigned kProducers = 3;
  constexpr std::uint32_t kPerProducer = 5'000;
  // Ring big enough that nothing spills: drain order must then be
  // strictly increasing per producer (the FIFO-per-producer guarantee
  // downstream determinism builds on).
  util::MpscMailbox<Tagged> box(1u << 16);

  std::atomic<unsigned> remaining{kProducers};
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, &remaining, p] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) box.push({p, i});
      remaining.fetch_sub(1, std::memory_order_release);
    });
  }
  std::vector<Tagged> received;
  while (remaining.load(std::memory_order_acquire) > 0) {
    box.drain(received);
    std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();
  box.drain(received);

  ASSERT_EQ(received.size(), kProducers * kPerProducer);
  EXPECT_EQ(box.spilled(), 0u);
  std::uint32_t next[kProducers] = {0, 0, 0};
  for (const Tagged& item : received) {
    ASSERT_LT(item.producer, kProducers);
    EXPECT_EQ(item.seq, next[item.producer]);
    ++next[item.producer];
  }
}

// --- ServerCore drain equivalence -------------------------------------------

sim::EngineConfig small_engine_config() {
  sim::EngineConfig config;
  config.workload.process = sim::ArrivalProcess::kPoisson;
  config.workload.objects = 24;
  config.workload.zipf_exponent = 1.0;
  config.workload.mean_gap = 1e-3;
  config.workload.horizon = 4.0;
  config.workload.seed = 20260728;
  config.delay = 0.05;
  return config;
}

void expect_identical(const server::Snapshot& a, const server::Snapshot& b) {
  EXPECT_EQ(a.total_arrivals, b.total_arrivals);
  EXPECT_EQ(a.total_streams, b.total_streams);
  EXPECT_EQ(a.streams_served, b.streams_served);
  EXPECT_EQ(a.peak_concurrency, b.peak_concurrency);
  EXPECT_EQ(a.guarantee_violations, b.guarantee_violations);
  EXPECT_EQ(a.wait.mean, b.wait.mean);
  EXPECT_EQ(a.wait.max, b.wait.max);
  EXPECT_EQ(a.wait.p50, b.wait.p50);
  EXPECT_EQ(a.wait.p95, b.wait.p95);
  EXPECT_EQ(a.wait.p99, b.wait.p99);
  EXPECT_EQ(a.per_object, b.per_object);
}

/// Ring-fed snapshots must be bit-identical to the serial ingest_trace
/// baseline across shard widths (1/2/4/8), drain cadences, and ring
/// sizes small enough to force the overflow spill — for the batching
/// policy and for batched greedy merging. A live query after the first
/// drain must see a genuinely partial run.
TEST(ServerCorePost, SnapshotsMatchIngestTraceAcrossShardWidths) {
  const sim::EngineConfig config = small_engine_config();
  const std::vector<double> weights = sim::zipf_weights(
      config.workload.objects, config.workload.zipf_exponent);
  const auto n = static_cast<std::size_t>(config.workload.objects);
  std::vector<std::vector<double>> traces(n);
  for (std::size_t m = 0; m < n; ++m) {
    traces[m] = sim::generate_arrivals(config.workload, static_cast<Index>(m),
                                       weights[m]);
  }

  BatchingPolicy batching;
  GreedyMergePolicy greedy(merging::DyadicParams{}, /*batched=*/true);
  const std::vector<OnlinePolicy*> policies{&batching, &greedy};
  for (OnlinePolicy* policy : policies) {
    SCOPED_TRACE(policy->name());
    server::Snapshot baseline;
    {
      auto core_cfg = sim::core_config(config);
      core_cfg.shards = 1;
      server::ServerCore core(core_cfg, *policy);
      for (std::size_t m = 0; m < n; ++m) {
        core.ingest_trace(static_cast<Index>(m), std::vector<double>(traces[m]));
      }
      core.finish();
      baseline = core.take_snapshot();
    }
    ASSERT_GT(baseline.total_arrivals, 1000);
    EXPECT_EQ(baseline.guarantee_violations, 0);

    for (const unsigned shards : {1u, 2u, 4u, 8u}) {
      // mailbox_capacity 64 << arrivals per wave: the spill path runs for
      // real at every width.
      for (const Index capacity : {Index{0}, Index{64}}) {
        auto core_cfg = sim::core_config(config);
        core_cfg.shards = shards;
        core_cfg.mailbox_capacity = capacity;
        server::ServerCore core(core_cfg, *policy);
        // Post in waves with an uneven cadence: a few arrivals per object
        // between drains, so drain boundaries differ from every other
        // configuration in this test.
        std::size_t longest = 0;
        for (const auto& trace : traces) {
          longest = std::max(longest, trace.size());
        }
        std::size_t offset = 0;
        std::size_t wave = 17;
        std::optional<server::LiveStats> mid_run;
        while (offset < longest) {
          for (std::size_t m = 0; m < n; ++m) {
            const std::size_t hi = std::min(traces[m].size(), offset + wave);
            for (std::size_t k = offset; k < hi && k < traces[m].size(); ++k) {
              core.post(static_cast<Index>(m), traces[m][k]);
            }
          }
          offset += wave;
          wave = wave * 5 % 53 + 3;
          core.drain();
          if (!mid_run) mid_run = core.live_stats();
        }
        core.finish();
        const server::Snapshot snapshot = core.take_snapshot();
        ASSERT_TRUE(mid_run.has_value());
        EXPECT_GT(mid_run->admitted, 0);
        EXPECT_LT(mid_run->admitted, snapshot.total_arrivals);
        EXPECT_LE(mid_run->peak_channels, snapshot.peak_concurrency);
        expect_identical(snapshot, baseline);
      }
    }
  }
}

/// Concurrent producers + a live drain loop land on the same snapshot
/// as the serial baseline — the full lock-free path under real threads.
TEST(ServerCorePost, ConcurrentProducersMatchSerialBaseline) {
  const sim::EngineConfig config = small_engine_config();
  const std::vector<double> weights = sim::zipf_weights(
      config.workload.objects, config.workload.zipf_exponent);
  const auto n = static_cast<std::size_t>(config.workload.objects);
  std::vector<std::vector<double>> traces(n);
  for (std::size_t m = 0; m < n; ++m) {
    traces[m] = sim::generate_arrivals(config.workload, static_cast<Index>(m),
                                       weights[m]);
  }

  BatchingPolicy policy;
  server::Snapshot baseline;
  {
    auto core_cfg = sim::core_config(config);
    server::ServerCore core(core_cfg, policy);
    for (std::size_t m = 0; m < n; ++m) {
      core.ingest_trace(static_cast<Index>(m), std::vector<double>(traces[m]));
    }
    core.finish();
    baseline = core.take_snapshot();
  }

  constexpr unsigned kProducers = 4;
  auto core_cfg = sim::core_config(config);
  core_cfg.shards = kProducers;
  core_cfg.mailbox_capacity = 512;  // small enough to spill under load
  server::ServerCore core(core_cfg, policy);

  std::atomic<unsigned> remaining{kProducers};
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t m = p; m < n; m += kProducers) {
        for (const double t : traces[m]) {
          core.post(static_cast<Index>(m), t);
        }
      }
      remaining.fetch_sub(1, std::memory_order_release);
    });
  }
  while (remaining.load(std::memory_order_acquire) > 0) {
    core.drain();
    std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();
  core.drain();
  core.finish();
  expect_identical(core.take_snapshot(), baseline);
}

// Regression: one drain's spill claim can contain arrivals whose shard
// tickets are NEWER than ring slots the same sweep left behind — the
// ring sweep stops at a claimed-but-unpublished slot, and the producer
// may publish it and then spill past it before the drain reaches the
// spill. The collector must fold in contiguous ticket order and hold
// the post-gap tail for a later pass; folding the claim as-is threw a
// spurious "nondecreasing per object" here. A tiny ring and a spinning
// drain loop maximize ring/spill boundary crossings.
TEST(ServerCorePost, SpillRingInterleavingKeepsPerObjectOrder) {
  constexpr std::size_t kArrivals = 200000;
  BatchingPolicy policy;
  server::ServerCoreConfig config;
  config.objects = 1;
  config.delay = 0.5;
  config.horizon = kArrivals * 1e-5 + 1.0;
  config.shards = 1;
  config.mailbox_capacity = 16;
  server::ServerCore core(config, policy);
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (std::size_t i = 0; i < kArrivals; ++i) {
      core.post(0, static_cast<double>(i) * 1e-5);
    }
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    ASSERT_NO_THROW(core.drain());
  }
  producer.join();
  core.drain();
  core.finish();
  EXPECT_EQ(core.take_snapshot().total_arrivals, static_cast<Index>(kArrivals));
}

// --- post() contract edges --------------------------------------------------

TEST(ServerCorePost, ValidatesArgumentsAndServeMode) {
  BatchingPolicy policy;
  server::ServerCoreConfig config;
  config.objects = 4;
  config.delay = 0.1;
  config.horizon = 2.0;
  server::ServerCore core(config, policy);
  EXPECT_THROW(core.post(-1, 0.5), std::out_of_range);
  EXPECT_THROW(core.post(4, 0.5), std::out_of_range);
  EXPECT_THROW(core.post(0, -0.5), std::invalid_argument);

  server::ServerCoreConfig slotted = config;
  slotted.serve = server::ServeMode::kSlottedBatching;
  server::ServerCore slotted_core(slotted);
  EXPECT_THROW(slotted_core.post(0, 0.5), std::invalid_argument);
}

TEST(ServerCorePost, OutOfOrderPostsAreDetectedAtDrain) {
  BatchingPolicy policy;
  server::ServerCoreConfig config;
  config.objects = 2;
  config.delay = 0.1;
  config.horizon = 2.0;
  server::ServerCore core(config, policy);
  core.post(0, 1.0);
  core.drain();
  core.post(0, 0.5);  // behind what object 0 already served
  EXPECT_THROW(core.drain(), std::invalid_argument);
}

TEST(ServerCorePost, CheckpointRefusesUndrainedPosts) {
  BatchingPolicy policy;
  server::ServerCoreConfig config;
  config.objects = 2;
  config.delay = 0.1;
  config.horizon = 2.0;
  server::ServerCore core(config, policy);
  core.post(0, 0.25);
  EXPECT_THROW((void)core.checkpoint(), std::logic_error);
  core.drain();
  EXPECT_NO_THROW((void)core.checkpoint());
}

}  // namespace
}  // namespace smerge
