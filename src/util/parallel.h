// Chunked parallel-for used by the sweep benchmarks and the banded DP.
//
// Parameter sweeps over (L, n, lambda) grids are embarrassingly parallel;
// this helper fans the index range out over the persistent
// util::ThreadPool (src/util/thread_pool.h) following the C++ Core
// Guidelines concurrency rules (no shared mutable state, join before
// return). On single-core machines it degrades to a serial loop.
#ifndef SMERGE_UTIL_PARALLEL_H
#define SMERGE_UTIL_PARALLEL_H

#include <cstdint>
#include <functional>

namespace smerge::util {

/// Number of worker threads the library will use by default:
/// `std::thread::hardware_concurrency()` clamped to [1, 64].
[[nodiscard]] unsigned default_thread_count() noexcept;

/// Invokes `body(i)` for every i in [begin, end), distributing contiguous
/// chunks over at most `threads` participants of the shared ThreadPool
/// (the calling thread included). `body` must be safe to call concurrently
/// for distinct i (it must not touch shared mutable state without its own
/// synchronization). Exceptions thrown by `body` propagate to the caller
/// (the first one observed; the remaining chunks still execute).
///
/// With `threads <= 1` or a range smaller than 2 the loop runs inline on
/// the calling thread, which keeps single-core behaviour deterministic;
/// nested calls from inside a pool worker also run inline, so fanning out
/// a sweep whose body itself calls parallel_for never deadlocks.
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& body,
                  unsigned threads = default_thread_count());

}  // namespace smerge::util

#endif  // SMERGE_UTIL_PARALLEL_H
