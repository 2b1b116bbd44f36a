// The channel ledger's bulk fill against its per-event path, and its
// canonical checkpoint record: `apply_runs` at any part count must
// leave every bucket exactly as `add_interval` over the same runs would
// — same queries, same event count, same `save()` bytes — before and
// after later retractions and extensions, and the saved bytes must not
// depend on fill order, chunking or interleaved queries. Fills of
// fewer events than the tree's 64 leaves take apply_runs' in-place
// path, larger ones the bucket partition; the chunked fills below
// cross between the two.
#include "server/channel_ledger.h"

#include <gtest/gtest.h>

#include <algorithm>
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

/// One object's run through the per-event path.
void apply_object(ChannelLedger& ledger, const Runs& runs, std::size_t m) {
  for (std::size_t i = 0; i + 1 < runs[m].size(); i += 2) {
    ledger.add_interval(runs[m][i].time, runs[m][i + 1].time, static_cast<Index>(m));
  }
}

/// The per-event path over every object, in object order.
void apply_serial(ChannelLedger& ledger, const Runs& runs) {
  for (std::size_t m = 0; m < runs.size(); ++m) apply_object(ledger, runs, m);
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

TEST(ChannelLedgerRuns, MatchesPerEventPathAtEveryPartCount) {
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

/// A handful of queries that sort and flush whatever they touch.
void probe(ChannelLedger& ledger, double at) {
  (void)ledger.occupancy_at(at);
  (void)ledger.max_over(at, at + 0.7);
  (void)ledger.peak();
}

// The checkpoint record holds only canonical content: the same events
// fed per event in emission order, per event in a shuffled object
// order, and through apply_runs in uneven successive chunks at 1-4
// parts — each with and without queries in between — save the same
// bytes, and a ledger restored from them answers every query the same
// and saves them again unchanged.
TEST(ChannelLedgerRuns, SaveBytesIgnoreFillOrderChunkingAndQueries) {
  util::ThreadPool pool(3);
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Runs runs = random_runs(seed, 9, 30);
    ChannelLedger reference(kSpan, kWidth);
    apply_serial(reference, runs);
    const std::vector<std::uint8_t> bytes = save_bytes(reference);

    std::vector<std::size_t> shuffled(runs.size());
    for (std::size_t m = 0; m < shuffled.size(); ++m) shuffled[m] = m;
    util::SplitMix64 rng(seed * 31);
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.next() % i]);
    }
    ASSERT_FALSE(std::is_sorted(shuffled.begin(), shuffled.end()));

    for (const bool queries : {false, true}) {
      SCOPED_TRACE(queries ? "with queries" : "without queries");
      {
        ChannelLedger emitted(kSpan, kWidth);
        for (std::size_t m = 0; m < runs.size(); ++m) {
          apply_object(emitted, runs, m);
          if (queries) probe(emitted, 0.9 * static_cast<double>(m));
        }
        EXPECT_EQ(save_bytes(emitted), bytes) << "per event, emission order";
      }
      {
        ChannelLedger reordered(kSpan, kWidth);
        for (const std::size_t m : shuffled) {
          apply_object(reordered, runs, m);
          if (queries) probe(reordered, 0.9 * static_cast<double>(m));
        }
        EXPECT_EQ(save_bytes(reordered), bytes) << "per event, shuffled objects";
      }
      for (const unsigned parts : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE("parts=" + std::to_string(parts));
        ChannelLedger chunked(kSpan, kWidth);
        // Successive chunks of uneven length, cut across object runs
        // (pairs kept whole), so chunks straddle buckets and objects.
        std::size_t object = 0;
        std::size_t offset = 0;
        std::size_t chunk = 2;
        while (object < runs.size()) {
          std::vector<ChannelLedger::Run> fill;
          for (std::size_t left = chunk; left > 0 && object < runs.size();) {
            const std::span<const ChannelEvent> run(runs[object]);
            const std::size_t n = std::min(left, run.size() - offset);
            fill.push_back({static_cast<Index>(object), run.subspan(offset, n)});
            left -= n;
            offset += n;
            if (offset == runs[object].size()) {
              ++object;
              offset = 0;
            }
          }
          chunked.apply_runs(fill, pool, parts);
          if (queries) probe(chunked, 0.37 * static_cast<double>(chunk));
          chunk = chunk * 7 % 127 + 2;
          chunk -= chunk % 2;
        }
        EXPECT_EQ(save_bytes(chunked), bytes) << "apply_runs chunks";
      }
    }

    ChannelLedger restored(kSpan, kWidth);
    util::SnapshotReader reader(bytes);
    restored.restore(reader);
    reader.expect_end();
    expect_same(reference, restored);
    EXPECT_EQ(save_bytes(restored), bytes);
  }
}

/// A hand-written ledger record over three buckets of width 0.25.
std::vector<std::uint8_t> ledger_record(
    const std::vector<std::vector<LedgerEvent>>& buckets) {
  util::SnapshotWriter w;
  w.f64(0.25);
  w.u64(buckets.size());
  std::int64_t events = 0;
  for (const auto& bucket : buckets) events += static_cast<std::int64_t>(bucket.size());
  w.i64(events);
  for (const auto& bucket : buckets) {
    w.u64(bucket.size());
    for (const LedgerEvent& e : bucket) {
      w.f64(e.time);
      w.i64(e.object);
      w.i64(e.delta);
      w.boolean(e.stream_start);
    }
  }
  const auto bytes = w.payload();
  return {bytes.begin(), bytes.end()};
}

/// The SnapshotError restore raises on the record of `buckets`, or
/// "restored".
std::string restore_refusal(const std::vector<std::vector<LedgerEvent>>& buckets) {
  const std::vector<std::uint8_t> record = ledger_record(buckets);
  ChannelLedger ledger(0.5, 0.25);  // three buckets
  util::SnapshotReader reader(record);
  try {
    ledger.restore(reader);
  } catch (const util::SnapshotError& e) {
    return e.what();
  }
  return "restored";
}

TEST(ChannelLedgerRuns, RestoreRefusesNonCanonicalBuckets) {
  const LedgerEvent start{0.3, 0, +1, true};
  const LedgerEvent end{0.4, 0, -1, false};
  const LedgerEvent other{0.3, 1, +1, true};
  EXPECT_EQ(restore_refusal({{}, {start, other, end}, {}}), "restored");
  // Out of canonical order: time, then object id.
  for (const std::string& why : {restore_refusal({{}, {end, start}, {}}),
                                 restore_refusal({{}, {other, start}, {}})}) {
    EXPECT_NE(why.find("canonical order"), std::string::npos) << why;
  }
  // Filed in a bucket other than its time's (0.3 and 0.4 lie in
  // bucket 1).
  for (const std::string& why : {restore_refusal({{start}, {end}, {}}),
                                 restore_refusal({{}, {start}, {end}})}) {
    EXPECT_NE(why.find("wrong bucket"), std::string::npos) << why;
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
