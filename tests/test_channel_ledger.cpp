// The channel ledger's end-of-run bulk fill against its serial drain
// path: `apply_runs` at any part count must leave every bucket exactly
// as `apply_batch` + `peak()` would — same queries, same event count,
// same checkpoint bytes — before and after later retractions and
// extensions.
#include "server/channel_ledger.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/snapshot.h"
#include "util/thread_pool.h"

namespace smerge::server {
namespace {

constexpr double kSpan = 10.0;
constexpr double kWidth = 0.25;

/// Per-object event runs, index = object id.
using Runs = std::vector<std::vector<ChannelEvent>>;

/// A time on a coarse grid, so different objects (and one object's own
/// streams) often share a time exactly, bucket edges included.
double grid_time(util::SplitMix64& rng, double limit) {
  const auto steps = static_cast<std::uint64_t>(limit / 0.05);
  return 0.05 * static_cast<double>(rng.next() % steps);
}

/// Per-object (+1 start, -1 end) pairs in emission order, not time
/// order: some ends run past the span (clamped into the last bucket)
/// and some streams repeat verbatim (equal time and delta in one
/// object).
Runs random_runs(std::uint64_t seed, int objects, int streams) {
  util::SplitMix64 rng(seed);
  Runs runs(static_cast<std::size_t>(objects));
  for (auto& run : runs) {
    for (int i = 0; i < streams; ++i) {
      if (!run.empty() && rng.next() % 6 == 0) {
        const ChannelEvent start = run[run.size() - 2];
        const ChannelEvent end = run.back();
        run.push_back(start);
        run.push_back(end);
        continue;
      }
      const double start = grid_time(rng, kSpan + 1.0);
      const double length = grid_time(rng, 2.5);
      run.push_back({start, +1});
      run.push_back({start + length, -1});
    }
  }
  return runs;
}

/// The drain path: one apply_batch per object, in object order.
void apply_serial(ChannelLedger& ledger, const Runs& runs) {
  for (std::size_t m = 0; m < runs.size(); ++m) {
    std::vector<LedgerEvent> batch;
    for (const ChannelEvent& e : runs[m]) {
      batch.push_back({e.time, static_cast<Index>(m), e.delta, e.delta > 0});
    }
    ledger.apply_batch(batch);
  }
}

void apply_parallel(ChannelLedger& ledger, const Runs& runs, util::ThreadPool& pool,
                    unsigned parts) {
  std::vector<ChannelLedger::Run> spans;
  for (std::size_t m = 0; m < runs.size(); ++m) {
    spans.push_back({static_cast<Index>(m), runs[m]});
  }
  ledger.apply_runs(spans, pool, parts);
}

std::vector<std::uint8_t> save_bytes(const ChannelLedger& ledger) {
  util::SnapshotWriter writer;
  ledger.save(writer);
  const auto bytes = writer.payload();
  return {bytes.begin(), bytes.end()};
}

void expect_same(ChannelLedger& expected, ChannelLedger& got) {
  EXPECT_EQ(got.peak(), expected.peak());
  EXPECT_EQ(got.events(), expected.events());
  for (double t = 0.0; t <= kSpan + 1.5; t += 0.0625) {
    SCOPED_TRACE("t=" + std::to_string(t));
    EXPECT_EQ(got.occupancy_at(t), expected.occupancy_at(t));
  }
  for (double a = 0.0; a <= kSpan + 1.0; a += 0.35) {
    for (const double len : {0.0, 0.05, 0.3, 1.7, 6.0}) {
      SCOPED_TRACE("window from " + std::to_string(a) + " len " + std::to_string(len));
      EXPECT_EQ(got.max_over(a, a + len), expected.max_over(a, a + len));
    }
  }
  for (const Index capacity : {1, 2, 3, 5, 8}) {
    EXPECT_EQ(got.capacity_violations(capacity), expected.capacity_violations(capacity));
  }
  EXPECT_EQ(save_bytes(got), save_bytes(expected));
}

TEST(ChannelLedgerRuns, MatchesSerialBatchesAtEveryPartCount) {
  util::ThreadPool pool(3);
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    // Two earlier drains: the first is flushed by a query, the second
    // leaves its buckets dirty for the bulk fill to finish sorting.
    const Runs sorted_drain = random_runs(seed * 101, 5, 12);
    const Runs dirty_drain = random_runs(seed * 103, 7, 9);
    const Runs final_fill = random_runs(seed * 107, 9, 40);
    for (const unsigned parts : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " parts=" + std::to_string(parts));
      ChannelLedger serial(kSpan, kWidth);
      ChannelLedger bulk(kSpan, kWidth);
      for (ChannelLedger* ledger : {&serial, &bulk}) {
        apply_serial(*ledger, sorted_drain);
        (void)ledger->peak();
        apply_serial(*ledger, dirty_drain);
      }
      apply_serial(serial, final_fill);
      apply_parallel(bulk, final_fill, pool, parts);
      expect_same(serial, bulk);

      // Plan repair after the fill: retractions and extensions append
      // compensation pairs to already-sorted buckets.
      util::SplitMix64 rng(seed * 109);
      for (std::size_t m = 0; m < final_fill.size(); ++m) {
        const auto& run = final_fill[m];
        for (std::size_t i = 0; i + 1 < run.size(); i += 6) {
          const double start = run[i].time;
          const double old_end = run[i + 1].time;
          double new_end = old_end + grid_time(rng, 1.5);  // extension
          if (rng.next() % 2 == 0) new_end = start + 0.5 * (old_end - start);
          serial.move_end(old_end, new_end, static_cast<Index>(m));
          bulk.move_end(old_end, new_end, static_cast<Index>(m));
        }
      }
      expect_same(serial, bulk);
    }
  }
}

TEST(ChannelLedgerRuns, EmptyRunsAndMorePartsThanBuckets) {
  util::ThreadPool pool(2);
  Runs runs = random_runs(5, 3, 10);
  runs.insert(runs.begin() + 1, std::vector<ChannelEvent>{});
  ChannelLedger serial(0.5, 0.25);  // three buckets
  ChannelLedger bulk(0.5, 0.25);
  apply_serial(serial, runs);
  apply_parallel(bulk, runs, pool, 16);
  EXPECT_EQ(bulk.peak(), serial.peak());
  EXPECT_EQ(bulk.events(), serial.events());
  EXPECT_EQ(save_bytes(bulk), save_bytes(serial));

  ChannelLedger untouched(kSpan, kWidth);
  apply_parallel(untouched, {}, pool, 4);
  EXPECT_EQ(untouched.peak(), 0);
  EXPECT_EQ(untouched.events(), 0);
}

// An empty window answers the occupancy at its point, even when events
// sit exactly there.
TEST(ChannelLedgerRuns, EmptyWindowIsTheOccupancyAtItsPoint) {
  ChannelLedger ledger(kSpan, kWidth);
  ledger.add_interval(1.0, 2.0, 0);
  ledger.add_interval(1.0, 1.5, 1);
  for (const double t : {0.5, 1.0, 1.25, 1.5, 2.0, 3.0}) {
    SCOPED_TRACE("t=" + std::to_string(t));
    EXPECT_EQ(ledger.max_over(t, t), ledger.occupancy_at(t));
  }
  EXPECT_EQ(ledger.max_over(1.0, 1.0), 2);
}

}  // namespace
}  // namespace smerge::server
