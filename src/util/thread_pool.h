// Persistent worker pool backing util::parallel_for.
//
// The original parallel_for spawned fresh std::threads per call, which
// is fine for a handful of coarse sweep points but ruinous for the
// banded DP's per-wavefront fan-out (hundreds of dispatches per solve).
// This pool keeps its workers alive for the process lifetime and hands
// them contiguous index chunks through one atomic cursor, so a dispatch
// costs a mutex bump and a condition-variable broadcast instead of
// thread creation — workers share one std::function per fork-join
// region (no per-chunk or per-worker callable copies).
//
// Concurrency contract (C++ Core Guidelines style):
//  * one fork-join region at a time; a second concurrent `run` from
//    another thread degrades to an inline loop rather than blocking;
//  * `run` issued from inside a pool worker executes inline, so nested
//    parallel_for never deadlocks or oversubscribes;
//  * exceptions from the body propagate to the caller (first one
//    observed; remaining chunks still execute).
#ifndef SMERGE_UTIL_THREAD_POOL_H
#define SMERGE_UTIL_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace smerge::util {

class ThreadPool {
 public:
  /// Spawns `workers` threads (0 is valid: every `run` is then inline).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, lazily created with
  /// `max(1, default_thread_count() - 1)` workers (the caller of `run`
  /// participates, so total parallelism matches the hardware; the floor
  /// keeps the cross-thread path reachable on single-core hosts).
  static ThreadPool& shared();

  /// Number of persistent worker threads.
  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// True when the calling thread is one of this process's pool workers
  /// (any pool), in which case `run` executes inline.
  [[nodiscard]] static bool on_worker_thread() noexcept;

  /// Invokes `body(i)` for every i in [begin, end), distributing chunks
  /// of `grain` indices over at most `max_threads` participants
  /// (including the calling thread, which always works too). Blocks
  /// until the range is complete; rethrows the first exception thrown
  /// by `body`. Runs inline when `max_threads <= 1`, the range has
  /// fewer than two indices, the pool has no workers, or the call is
  /// nested inside a pool worker.
  void run(std::int64_t begin, std::int64_t end, std::int64_t grain,
           unsigned max_threads, const std::function<void(std::int64_t)>& body);

 private:
  // One fork-join region. Heap-allocated and shared with the workers so
  // a worker waking late mutates a completed job's counters harmlessly
  // instead of racing the next job's setup.
  struct Job {
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t grain = 1;
    std::atomic<std::int64_t> cursor{0};  ///< next unclaimed index
    std::atomic<std::int64_t> done{0};    ///< indices fully executed
    std::atomic<unsigned> slots{0};       ///< worker participation budget
    const std::function<void(std::int64_t)>* body = nullptr;
    std::exception_ptr error;  ///< first exception, guarded by pool mutex
  };

  void worker_loop();
  void work_chunks(Job& job);

  std::mutex mutex_;
  std::condition_variable cv_work_;   ///< new job / shutdown
  std::condition_variable cv_done_;   ///< job completion
  std::shared_ptr<Job> job_;          ///< current job, guarded by mutex_
  std::uint64_t epoch_ = 0;           ///< bumped per job, guarded by mutex_
  bool stop_ = false;
  std::mutex run_mutex_;              ///< serializes concurrent callers
  std::vector<std::thread> workers_;
};

}  // namespace smerge::util

#endif  // SMERGE_UTIL_THREAD_POOL_H
