// Tests for the persistent util::ThreadPool backing parallel_for: chunk
// coverage with real workers, exception propagation, the inline
// fallbacks (threads <= 1, zero workers, nested fork-joins), and
// determinism of pooled vs serial fills.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.h"

namespace smerge::util {
namespace {

TEST(ThreadPool, CoversRangeExactlyOnceWithWorkers) {
  // A private pool with real workers, so the multi-threaded chunk-claim
  // path is exercised even on single-core CI hosts.
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  std::vector<std::atomic<int>> hits(1031);
  pool.run(0, 1031, /*grain=*/7, /*max_threads=*/4, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusedAcrossManyDispatches) {
  // The point of persistence: hundreds of fork-joins (one per DP
  // wavefront) on the same workers.
  ThreadPool pool(2);
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.run(0, 64, 8, 3, [&](std::int64_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 200 * (64 * 63 / 2));
}

TEST(ThreadPool, PropagatesFirstExceptionAndCompletesRange) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.run(0, 100, 5, 3,
                        [&](std::int64_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                          executed.fetch_add(1);
                        }),
               std::runtime_error);
  // The contract: remaining chunks still execute after a throw; only
  // the tail of the throwing chunk (38, 39 with grain 5) is skipped.
  EXPECT_EQ(executed.load(), 97);
}

TEST(ThreadPool, InlineFallbacks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.run(5, 5, 1, 4, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);  // empty range
  pool.run(0, 1, 1, 4, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);  // singleton runs inline
  pool.run(0, 10, 1, 1, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 11);  // max_threads=1 runs inline

  ThreadPool empty(0);
  EXPECT_EQ(empty.worker_count(), 0u);
  empty.run(0, 10, 1, 8, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 21);  // no workers: inline
}

TEST(ThreadPool, NestedRunExecutesInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  std::atomic<int> nested_on_worker{0};
  pool.run(0, 4, 1, 3, [&](std::int64_t) {
    if (ThreadPool::on_worker_thread()) nested_on_worker.fetch_add(1);
    // Inline either way: workers by the worker flag, the participating
    // caller by the in-region flag (it must never retouch the region
    // mutex it already owns).
    pool.run(0, 10, 1, 3,
             [&](std::int64_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 40);
}

TEST(ThreadPool, ConcurrentCallersBothComplete) {
  // A second fork-join issued while one is in flight degrades to an
  // inline loop instead of blocking or corrupting the active job.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::thread other([&] {
    for (int r = 0; r < 50; ++r) {
      pool.run(0, 32, 4, 3, [&](std::int64_t) { total.fetch_add(1); });
    }
  });
  for (int r = 0; r < 50; ++r) {
    pool.run(0, 32, 4, 3, [&](std::int64_t) { total.fetch_add(1); });
  }
  other.join();
  EXPECT_EQ(total.load(), 2 * 50 * 32);
}

TEST(ThreadPool, PooledFillMatchesSerialFill) {
  // Determinism: chunked execution must write exactly what a serial
  // loop writes (cells are independent; per-cell work is sequential).
  ThreadPool pool(3);
  std::vector<double> serial(512), pooled(512);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    serial[i] = static_cast<double>(i) * 1.25 + 3.0;
  }
  pool.run(0, 512, 16, 4, [&](std::int64_t i) {
    pooled[static_cast<std::size_t>(i)] = static_cast<double>(i) * 1.25 + 3.0;
  });
  EXPECT_EQ(serial, pooled);
}

TEST(ThreadPool, SharedPoolSizedToHardware) {
  EXPECT_EQ(ThreadPool::shared().worker_count(),
            std::max(1u, default_thread_count() - 1));
  EXPECT_FALSE(ThreadPool::on_worker_thread());  // the test thread
}

}  // namespace
}  // namespace smerge::util
