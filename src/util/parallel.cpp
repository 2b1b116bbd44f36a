#include "util/parallel.h"

#include <algorithm>
#include <thread>

#include "util/thread_pool.h"

namespace smerge::util {

unsigned default_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw == 0 ? 1u : hw, 1u, 64u);
}

void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& body,
                  unsigned threads) {
  if (begin >= end) return;
  const std::int64_t count = end - begin;
  if (threads <= 1 || count < 2) {
    for (std::int64_t i = begin; i < end; ++i) body(i);
    return;
  }
  // Chunks a few times smaller than an even split keep stragglers busy
  // when per-index work is uneven (typical for size-ladder sweeps).
  const auto participants =
      static_cast<std::int64_t>(std::max(1u, std::min(threads, 64u)));
  const std::int64_t grain = std::max<std::int64_t>(1, count / (participants * 4));
  ThreadPool::shared().run(begin, end, grain, threads, body);
}

}  // namespace smerge::util
