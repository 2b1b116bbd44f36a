#include "util/thread_pool.h"

#include <algorithm>

#include "util/parallel.h"

namespace smerge::util {

namespace {

// Set for the lifetime of every pool worker thread; `run` checks it to
// execute nested fork-joins inline.
thread_local bool t_on_pool_worker = false;

// Set while a thread is inside `run`: a nested call from the
// participating caller must go inline *before* touching run_mutex_
// (try_lock on a mutex the thread already owns is undefined behavior).
thread_local bool t_in_fork_join = false;

}  // namespace

ThreadPool::ThreadPool(unsigned workers) {
  workers_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
}

ThreadPool& ThreadPool::shared() {
  // default - 1 workers so caller + workers match the hardware, but
  // always at least one worker: single-core hosts then still exercise
  // the real cross-thread path when explicitly asked for threads > 1
  // (with threads = 1 everything is inline anyway).
  static ThreadPool pool(std::max(1u, default_thread_count() - 1));
  return pool;
}

bool ThreadPool::on_worker_thread() noexcept { return t_on_pool_worker; }

void ThreadPool::worker_loop() {
  t_on_pool_worker = true;
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(mutex_);
      cv_work_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      job = job_;
    }
    // Participate only while the job has slots left; a worker arriving
    // after the budget is spent (or the job finished) goes back to sleep.
    unsigned slots = job->slots.load(std::memory_order_relaxed);
    bool joined = false;
    while (slots > 0 &&
           !(joined = job->slots.compare_exchange_weak(slots, slots - 1))) {
    }
    if (joined) work_chunks(*job);
  }
}

void ThreadPool::work_chunks(Job& job) {
  const std::int64_t total = job.end - job.begin;
  for (;;) {
    const std::int64_t lo = job.cursor.fetch_add(job.grain);
    if (lo >= job.end) break;
    const std::int64_t hi = std::min(lo + job.grain, job.end);
    try {
      for (std::int64_t i = lo; i < hi; ++i) (*job.body)(i);
    } catch (...) {
      const std::scoped_lock lock(mutex_);
      if (!job.error) job.error = std::current_exception();
    }
    if (job.done.fetch_add(hi - lo) + (hi - lo) == total) {
      // Last chunk: wake the caller. Taking the mutex orders this
      // notify after the caller entered its predicate wait.
      const std::scoped_lock lock(mutex_);
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::run(std::int64_t begin, std::int64_t end, std::int64_t grain,
                     unsigned max_threads,
                     const std::function<void(std::int64_t)>& body) {
  if (begin >= end) return;
  const std::int64_t count = end - begin;
  const auto inline_loop = [&] {
    for (std::int64_t i = begin; i < end; ++i) body(i);
  };
  if (max_threads <= 1 || count < 2 || workers_.empty() || t_on_pool_worker ||
      t_in_fork_join) {
    inline_loop();
    return;
  }
  // One fork-join region at a time; a caller concurrent with another
  // thread's region runs inline rather than queueing behind it. (A
  // nested call from this thread's own region was already diverted by
  // t_in_fork_join above.)
  const std::unique_lock run_lock(run_mutex_, std::try_to_lock);
  if (!run_lock.owns_lock()) {
    inline_loop();
    return;
  }
  struct FlagGuard {
    ~FlagGuard() { t_in_fork_join = false; }
  } flag_guard;
  t_in_fork_join = true;

  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->end = end;
  job->grain = std::max<std::int64_t>(1, grain);
  job->cursor.store(begin, std::memory_order_relaxed);
  job->slots.store(
      std::min(max_threads, static_cast<unsigned>(workers_.size()) + 1) - 1,
      std::memory_order_relaxed);
  job->body = &body;
  {
    const std::scoped_lock lock(mutex_);
    job_ = job;
    ++epoch_;
  }
  cv_work_.notify_all();
  work_chunks(*job);  // the caller is always a participant
  {
    std::unique_lock lock(mutex_);
    cv_done_.wait(lock, [&] { return job->done.load() == count; });
  }
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace smerge::util
