// Tests for the util substrate: tables, CLI parsing, statistics (the
// wait histogram among them), the parallel-for helper and the
// splittable RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/snapshot.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/wait_histogram.h"

namespace smerge::util {
namespace {

TEST(TextTable, AlignedRendering) {
  TextTable t({"n", "M(n)"});
  t.add_row(8, 21);
  t.add_row(144, 1153);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("|   n |"), std::string::npos);  // right-aligned header
  EXPECT_NE(s.find("|   8 |"), std::string::npos);
  EXPECT_NE(s.find("| 144 |"), std::string::npos);
}

TEST(TextTable, CsvEscaping) {
  TextTable t({"name", "value"});
  t.add_row(std::vector<std::string>{"a,b", "say \"hi\""});
  EXPECT_EQ(t.to_csv(), "name,value\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST(TextTable, ArityChecked) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row(std::vector<std::string>{"x"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, CellFormatting) {
  EXPECT_EQ(TextTable::cell(std::int64_t{42}), "42");
  EXPECT_EQ(TextTable::cell(1.5), "1.5000");
  EXPECT_EQ(TextTable::cell("text"), "text");
}

TEST(ArgParser, ParsesTypedFlags) {
  ArgParser p("test");
  p.add_int("n", 10, "count");
  p.add_double("rate", 0.5, "rate");
  p.add_string("mode", "fast", "mode");
  p.add_bool("verbose", false, "verbosity");
  const char* argv[] = {"prog", "--n=25", "--rate", "1.75", "--verbose", "pos1"};
  ASSERT_TRUE(p.parse(6, argv));
  EXPECT_EQ(p.get_int("n"), 25);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 1.75);
  EXPECT_EQ(p.get_string("mode"), "fast");
  EXPECT_TRUE(p.get_bool("verbose"));
  ASSERT_EQ(p.positional().size(), 1u);
  EXPECT_EQ(p.positional()[0], "pos1");
}

TEST(ArgParser, HelpRequested) {
  ArgParser p("test");
  p.add_int("n", 1, "count");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
  EXPECT_NE(p.help().find("--n"), std::string::npos);
}

TEST(ArgParser, RejectsUnknownAndMalformed) {
  ArgParser p("test");
  p.add_int("n", 1, "count");
  const char* bad_flag[] = {"prog", "--typo=3"};
  EXPECT_THROW(p.parse(2, bad_flag), std::invalid_argument);
  ArgParser q("test");
  q.add_int("n", 1, "count");
  const char* bad_value[] = {"prog", "--n=abc"};
  ASSERT_TRUE(q.parse(2, bad_value));
  EXPECT_THROW((void)q.get_int("n"), std::invalid_argument);
  EXPECT_THROW((void)q.get_int("nope"), std::out_of_range);
}

TEST(RunningStats, MomentsMatchDirectComputation) {
  RunningStats s;
  const std::vector<double> xs{1.0, 2.0, 3.5, -4.0, 10.0};
  double sum = 0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  EXPECT_EQ(s.count(), 5);
  EXPECT_DOUBLE_EQ(s.mean(), sum / 5.0);
  EXPECT_DOUBLE_EQ(s.min(), -4.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  double ss = 0;
  for (double x : xs) ss += (x - s.mean()) * (x - s.mean());
  EXPECT_NEAR(s.variance(), ss / 4.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(ss / 4.0), 1e-12);
  EXPECT_NEAR(s.sum(), sum, 1e-12);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, EmptyEdgeCases) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.variance(), 0.0);
  RunningStats t;
  t.add(3.0);
  t.merge(s);  // merging empty is a no-op
  EXPECT_EQ(t.count(), 1);
  s.merge(t);  // merging into empty copies
  EXPECT_EQ(s.count(), 1);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(0, 257, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  std::atomic<int> count{0};
  parallel_for(5, 5, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  parallel_for(5, 6, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [](std::int64_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   },
                   4),
      std::runtime_error);
}

TEST(ParallelFor, SerialFallbackMatches) {
  std::vector<int> serial(100), parallel(100);
  parallel_for(0, 100, [&](std::int64_t i) {
    serial[static_cast<std::size_t>(i)] = static_cast<int>(i * i);
  }, 1);
  parallel_for(0, 100, [&](std::int64_t i) {
    parallel[static_cast<std::size_t>(i)] = static_cast<int>(i * i);
  }, 8);
  EXPECT_EQ(serial, parallel);
}

TEST(DefaultThreadCount, Sane) {
  const unsigned t = default_thread_count();
  EXPECT_GE(t, 1u);
  EXPECT_LE(t, 64u);
}

TEST(SplitMix64, DeterministicAndSeedSensitive) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
  SplitMix64 c(43);
  EXPECT_NE(SplitMix64(42).next(), c.next());
}

TEST(SplitMix64, SplitIgnoresParentPosition) {
  // split derives from the initial seed, not the current state: a parent
  // that has already produced values splits to the same substream.
  SplitMix64 fresh(7);
  SplitMix64 advanced(7);
  for (int i = 0; i < 100; ++i) (void)advanced.next();
  SplitMix64 sub_fresh = fresh.split(3);
  SplitMix64 sub_advanced = advanced.split(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(sub_fresh.next(), sub_advanced.next());
  // Distinct keys give distinct substreams.
  EXPECT_NE(fresh.split(3).next(), fresh.split(4).next());
}

TEST(SplitMix64, DoublesInUnitIntervalWithSaneMean) {
  SplitMix64 rng(1234);
  double sum = 0.0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    const double u = rng.next_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
}

TEST(SplitMix64, ExponentialHasConfiguredMean) {
  SplitMix64 rng(99);
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.next_exponential(2.5);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kDraws, 2.5, 0.1);
}

// --- WaitHistogram -----------------------------------------------------------

/// Named sample streams for the histogram's accuracy and merge tests.
struct SampleStream {
  const char* name;
  std::vector<double> values;
};

std::vector<SampleStream> histogram_streams() {
  SplitMix64 rng(4242);
  std::vector<SampleStream> streams;
  std::vector<double> uniform(20000);
  for (double& x : uniform) x = rng.next_double() * 0.02;
  streams.push_back({"uniform", uniform});
  std::vector<double> exponential(20000);
  for (double& x : exponential) x = rng.next_exponential(0.005);
  streams.push_back({"exponential", exponential});
  // Few distinct values, spread over many octaves: long runs of ties
  // around every rank.
  std::vector<double> duplicates(5000);
  for (double& x : duplicates) {
    const auto mantissa = static_cast<double>(rng.next() % 4);
    const auto octave = static_cast<int>(rng.next() % 30);
    x = std::ldexp(1.0 + 0.25 * mantissa, -octave);
  }
  streams.push_back({"heavy-duplicate", duplicates});
  // Mostly exact zeros and values below the smallest bucket.
  std::vector<double> zeros(5000);
  for (double& x : zeros) {
    const std::uint64_t kind = rng.next() % 10;
    x = kind < 6 ? 0.0 : kind < 8 ? 1e-15 * rng.next_double() : rng.next_double();
  }
  streams.push_back({"zero-heavy", zeros});
  return streams;
}

WaitHistogram fill(std::span<const double> values) {
  WaitHistogram h;
  for (const double x : values) h.add(x);
  return h;
}

TEST(WaitHistogram, EstimatesStayWithinTheDocumentedRelativeError) {
  const std::vector<double> qs{0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0};
  for (const SampleStream& stream : histogram_streams()) {
    SCOPED_TRACE(stream.name);
    std::vector<double> sorted = stream.values;
    std::sort(sorted.begin(), sorted.end());
    const WaitHistogram h = fill(stream.values);
    std::vector<double> got(qs.size());
    h.quantiles(qs, got);
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const double exact = quantile_sorted(sorted, qs[i]);
      if (exact < WaitHistogram::kMinValue) {
        EXPECT_EQ(got[i], 0.0) << "q=" << qs[i];
      } else {
        EXPECT_LE(std::abs(got[i] - exact), WaitHistogram::kRelativeError * exact)
            << "q=" << qs[i] << " exact=" << exact;
      }
    }
    EXPECT_EQ(h.count(), static_cast<std::int64_t>(sorted.size()));
    EXPECT_EQ(h.max(), sorted.back());
    double sum = 0.0;
    for (const double x : sorted) sum += x;
    EXPECT_NEAR(h.mean(), sum / static_cast<double>(sorted.size()), 1e-12);
    // The profile is the same quantiles, plus the exact mean and max.
    const DelayProfile profile = h.profile();
    EXPECT_EQ(profile.p50, got[3]);
    EXPECT_EQ(profile.p95, got[5]);
    EXPECT_EQ(profile.p99, got[6]);
    EXPECT_EQ(profile.max, h.max());
    EXPECT_EQ(profile.mean, h.mean());
  }
}

TEST(WaitHistogram, EdgeCasesAndValidation) {
  WaitHistogram empty;
  EXPECT_EQ(empty.count(), 0);
  EXPECT_EQ(empty.mean(), 0.0);
  const DelayProfile none = empty.profile();
  EXPECT_EQ(none.p50, 0.0);
  EXPECT_EQ(none.p99, 0.0);
  EXPECT_EQ(none.max, 0.0);
  WaitHistogram h;
  h.add(3.0);
  double out[2];
  const double qs[] = {0.0, 1.0};
  h.quantiles(qs, out);
  EXPECT_NEAR(out[0], 3.0, 3.0 * WaitHistogram::kRelativeError);
  EXPECT_EQ(out[1], 3.0);  // capped at the exact maximum
  // Out-of-range samples: negatives count as zero, huge ones in the top
  // bucket; the count and the maximum stay exact.
  h.add(-1.0);
  h.add(1e9);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.max(), 1e9);
  h.quantiles(qs, out);
  EXPECT_EQ(out[0], 0.0);
  const double descending[] = {0.9, 0.5};
  EXPECT_THROW(h.quantiles(descending, out), std::invalid_argument);
  const double too_big[] = {0.5, 1.5};
  EXPECT_THROW(h.quantiles(too_big, out), std::invalid_argument);
  EXPECT_THROW(h.quantiles(qs, std::span<double>(out, 1)), std::invalid_argument);
  h.clear();
  EXPECT_EQ(h, WaitHistogram{});
}

TEST(WaitHistogram, MergeIsIndependentOfPartitionAndOrder) {
  const std::vector<double> qs{0.5, 0.95, 0.99};
  SplitMix64 rng(77);
  for (const SampleStream& stream : histogram_streams()) {
    SCOPED_TRACE(stream.name);
    const WaitHistogram whole = fill(stream.values);
    std::vector<double> expected(qs.size());
    whole.quantiles(qs, expected);
    for (const std::size_t parts : {2u, 3u, 7u}) {
      // A random partition (every part keeps stream order) ...
      std::vector<WaitHistogram> pieces(parts);
      for (const double x : stream.values) pieces[rng.next() % parts].add(x);
      // ... merged front to back, back to front, and pairwise.
      WaitHistogram forward;
      for (const WaitHistogram& p : pieces) forward.merge(p);
      WaitHistogram backward;
      for (std::size_t i = parts; i-- > 0;) backward.merge(pieces[i]);
      WaitHistogram pairs = pieces[0];
      for (std::size_t i = 1; i + 1 < parts; i += 2) {
        WaitHistogram pair = pieces[i];
        pair.merge(pieces[i + 1]);
        pairs.merge(pair);
      }
      if (parts % 2 == 0) pairs.merge(pieces[parts - 1]);
      for (const WaitHistogram* merged : {&forward, &backward, &pairs}) {
        EXPECT_EQ(*merged, whole);
        EXPECT_EQ(merged->mean(), whole.mean());
        std::vector<double> got(qs.size());
        merged->quantiles(qs, got);
        EXPECT_EQ(got, expected);
      }
    }
  }
}

TEST(WaitHistogram, SaveRestoreRoundTripIsByteIdentical) {
  std::vector<SampleStream> streams = histogram_streams();
  streams.push_back({"empty", {}});
  streams.push_back({"zeros only", {0.0, 0.0, 1e-20}});
  for (const SampleStream& stream : streams) {
    SCOPED_TRACE(stream.name);
    const WaitHistogram original = fill(stream.values);
    SnapshotWriter first;
    original.save(first);
    SnapshotReader reader(first.payload());
    const WaitHistogram restored = WaitHistogram::load(reader);
    reader.expect_end();
    EXPECT_EQ(restored, original);
    SnapshotWriter second;
    restored.save(second);
    const auto bytes = [](const SnapshotWriter& w) {
      return std::vector<std::uint8_t>(w.payload().begin(), w.payload().end());
    };
    EXPECT_EQ(bytes(first), bytes(second));
  }
  // A range past the last bucket is refused.
  SnapshotWriter bad;
  bad.u64(0);
  bad.u64(WaitHistogram::kBuckets);
  bad.u64(1);
  bad.u64(1);
  SnapshotReader reader(bad.payload());
  EXPECT_THROW((void)WaitHistogram::load(reader), SnapshotError);
}

TEST(QuantileSorted, NearestRankConventions) {
  std::vector<double> values{5.0, 1.0, 4.0, 2.0, 3.0};
  std::sort(values.begin(), values.end());
  EXPECT_DOUBLE_EQ(quantile_sorted(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(values, 0.6), 3.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(values, 0.61), 4.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(values, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted({}, 0.5), 0.0);
  EXPECT_THROW((void)quantile_sorted(values, 1.5), std::invalid_argument);
}

TEST(NearestRankQuantiles, MatchesSortedOnHeavyDuplicates) {
  const std::vector<double> qs{0.5, 0.95, 0.99, 1.0};
  SplitMix64 rng(2024);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 100u, 1000u, 4099u}) {
    for (const std::uint64_t distinct : {1u, 3u, 17u, 1000000u}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " distinct=" + std::to_string(distinct));
      std::vector<double> values(n);
      // Few distinct values make long runs of ties around every rank.
      for (double& v : values) {
        v = 0.01 * static_cast<double>(rng.next() % distinct);
      }
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      const std::vector<double> got = nearest_rank_quantiles(values, qs);
      ASSERT_EQ(got.size(), qs.size());
      for (std::size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(got[i], quantile_sorted(sorted, qs[i])) << "q=" << qs[i];
      }
      // A permutation: nothing lost or duplicated.
      std::sort(values.begin(), values.end());
      EXPECT_EQ(values, sorted);
    }
  }
}

TEST(NearestRankQuantiles, EdgeCasesAndValidation) {
  std::vector<double> one{4.0};
  const double all[] = {0.0, 0.5, 1.0};
  EXPECT_EQ(nearest_rank_quantiles(one, all),
            (std::vector<double>{4.0, 4.0, 4.0}));
  std::vector<double> two{9.0, 1.0};
  EXPECT_EQ(nearest_rank_quantiles(two, all),
            (std::vector<double>{1.0, 1.0, 9.0}));
  std::vector<double> empty;
  EXPECT_EQ(nearest_rank_quantiles(empty, all),
            (std::vector<double>{0.0, 0.0, 0.0}));
  const double repeated[] = {0.5, 0.5};
  std::vector<double> values{5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_EQ(nearest_rank_quantiles(values, repeated),
            (std::vector<double>{3.0, 3.0}));
  const double descending[] = {0.9, 0.5};
  EXPECT_THROW((void)nearest_rank_quantiles(values, descending),
               std::invalid_argument);
  const double out_of_range[] = {1.5};
  EXPECT_THROW((void)nearest_rank_quantiles(values, out_of_range),
               std::invalid_argument);
}

TEST(NearestRankQuantiles, SpreadSourcesMatchSorted) {
  const std::vector<double> qs{0.0, 0.5, 0.95, 0.99, 1.0};
  ThreadPool pool(3);
  SplitMix64 rng(77);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 50u, 20000u, 100003u}) {
    for (const std::uint64_t distinct : {1u, 2u, 17u, 1000000000u}) {
      for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " distinct=" +
                     std::to_string(distinct) + " threads=" + std::to_string(threads));
        // Uneven sources, some empty, holding n values between them.
        std::vector<std::vector<double>> store;
        std::size_t left = n;
        while (left > 0) {
          const std::size_t take = std::min<std::size_t>(left, rng.next() % 900);
          std::vector<double> source(take);
          for (double& v : source) {
            v = 1e-3 * static_cast<double>(rng.next() % distinct) - 0.25;
          }
          store.push_back(std::move(source));
          left -= take;
        }
        std::vector<std::span<const double>> sources(store.begin(), store.end());
        std::vector<double> sorted;
        for (const auto& source : store) {
          sorted.insert(sorted.end(), source.begin(), source.end());
        }
        std::sort(sorted.begin(), sorted.end());
        const std::vector<double> got =
            nearest_rank_quantiles(sources, qs, pool, threads);
        ASSERT_EQ(got.size(), qs.size());
        for (std::size_t i = 0; i < qs.size(); ++i) {
          EXPECT_EQ(got[i], quantile_sorted(sorted, qs[i])) << "q=" << qs[i];
        }
      }
    }
  }
}

TEST(NearestRankQuantiles, SpreadSourcesWithExtremeRange) {
  ThreadPool pool(2);
  const std::vector<double> a{1e308, -1e308, 0.0};
  const std::vector<double> b{5.0, -5.0};
  const std::vector<std::span<const double>> sources{a, b};
  const double qs[] = {0.2, 0.5, 1.0};
  EXPECT_EQ(nearest_rank_quantiles(sources, qs, pool, 2),
            (std::vector<double>{-1e308, 0.0, 1e308}));
  const double descending[] = {0.9, 0.5};
  EXPECT_THROW((void)nearest_rank_quantiles(sources, descending, pool, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace smerge::util
