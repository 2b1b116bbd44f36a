// The open-loop generator: one connection, a send thread and a receive
// thread. The send side writes pre-encoded ADMIT frames as their
// wall-clock due times pass; the receive side decodes TICKETs the whole
// time, so a server that pauses reading while its replies back up is
// always drained and sending never waits on receiving. Each ticket is
// timed from its admission's due time, not its send time, so a stalled
// sender shows up as latency; the sender's own lateness is recorded
// separately. The run ends at a deadline: admissions unticketed by then
// count as failed instead of hanging the run.
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "net/protocol.h"
#include "server/wire.h"
#include "sim/workload.h"
#include "util/parallel.h"
#include "util/snapshot.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace smerge;

constexpr std::size_t kAdmitFrame = net::kHeaderSize + 24;
constexpr std::size_t kMaxSendBatch = 1600;  ///< admissions per send() (64 KB)
/// A rung stops sending once its backlog is worth this many latency
/// limits at the offered rate: past that the server is overloaded, and
/// a deeper queue only grows its memory and the run's length.
constexpr double kAbortBacklogLimits = 10.0;
/// Leading share of a rung's admissions left out of its latency.
constexpr double kWarmupShare = 0.1;
/// Due-time window of the windowed p99.
constexpr double kWindowS = 0.02;

void pin_current_thread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Writes all of `data` unless `deadline` passes first; returns false
/// then. Never blocks past the deadline, so a server that stops reading
/// ends the rung instead of hanging it.
bool send_until(int fd, const std::uint8_t* data, std::size_t size,
                Clock::time_point deadline) {
  while (size > 0) {
    const auto n = ::send(fd, data, size, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      data += n;
      size -= static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      throw std::runtime_error("loadgen: send failed");
    }
    if (Clock::now() > deadline) return false;
    pollfd p{fd, POLLOUT, 0};
    poll(&p, 1, 20);
  }
  return true;
}

}  // namespace

sim::WorkloadConfig zipf_workload(std::int64_t objects, double mean_gap, double horizon,
                                  std::uint64_t seed) {
  sim::WorkloadConfig workload;
  workload.process = sim::ArrivalProcess::kPoisson;
  workload.objects = objects;
  workload.zipf_exponent = 1.0;
  workload.mean_gap = mean_gap;
  workload.horizon = horizon;
  workload.seed = seed;
  return workload;
}

std::vector<std::vector<double>> per_object_arrivals(const sim::WorkloadConfig& workload) {
  const std::vector<double> weights =
      sim::zipf_weights(workload.objects, workload.zipf_exponent);
  std::vector<std::vector<double>> per_object(static_cast<std::size_t>(workload.objects));
  util::parallel_for(0, workload.objects, [&](std::int64_t m) {
    per_object[static_cast<std::size_t>(m)] = sim::generate_arrivals(
        workload, m, weights[static_cast<std::size_t>(m)]);
  });
  return per_object;
}

std::vector<Arrival> merged_arrivals(const sim::WorkloadConfig& workload) {
  const std::vector<std::vector<double>> per_object = per_object_arrivals(workload);
  std::vector<Arrival> trace;
  for (std::size_t m = 0; m < per_object.size(); ++m) {
    for (const double t : per_object[m]) trace.push_back({static_cast<std::int64_t>(m), t});
  }
  std::sort(trace.begin(), trace.end(), [](const Arrival& a, const Arrival& b) {
    return a.time != b.time ? a.time < b.time : a.object < b.object;
  });
  return trace;
}

OpenLoopPlan plan_open_loop(const std::vector<Arrival>& trace, double horizon,
                            double duration_s) {
  OpenLoopPlan plan;
  plan.bytes.reserve(trace.size() * kAdmitFrame);
  plan.due_s.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    net::append_admit(plan.bytes, i + 1, trace[i].object, trace[i].time);
    plan.due_s.push_back(trace[i].time / horizon * duration_s);
  }
  plan.rate = static_cast<double>(trace.size()) / duration_s;
  return plan;
}

LoadgenResult run_open_loop(int fd, const OpenLoopPlan& plan,
                            const OpenLoopOptions& options) {
  const std::size_t n = plan.due_s.size();
  LoadgenResult result;
  if (n == 0) return result;

  std::vector<double> latency(n, std::numeric_limits<double>::quiet_NaN());
  std::atomic<std::uint64_t> sent{0};
  bool aborted = false;
  const double abort_backlog = kAbortBacklogLimits * plan.rate * options.p99_limit_us * 1e-6;
  std::atomic<std::uint64_t> ticketed{0};
  std::atomic<bool> send_done{false};
  std::atomic<double> send_end_s{0.0};
  struct Batch {
    std::size_t first;
    std::size_t last;
    double at_s;
  };
  std::vector<Batch> batches;
  std::uint64_t outstanding_max = 0;
  std::uint64_t bad = 0;
  std::string send_error;
  std::string recv_error;

  timeval tv{};
  tv.tv_usec = 20000;  // recv wakes up to check the deadline
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto since_t0 = [&](Clock::time_point t) { return seconds_between(t0, t); };
  const Clock::time_point send_deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(plan.due_s.back() + options.grace_s));

  std::thread sender([&] {
    pin_current_thread(options.send_cpu);
    try {
      std::size_t i = 0;
      double next_sample = 0.0;
      while (i < n) {
        const double now = since_t0(Clock::now());
        if (now >= next_sample) {
          const std::uint64_t backlog = sent.load(std::memory_order_relaxed) -
                                        ticketed.load(std::memory_order_relaxed);
          outstanding_max = std::max(outstanding_max, backlog);
          next_sample = now + 1e-3;
          if (static_cast<double>(backlog) > abort_backlog) {
            aborted = true;
            break;
          }
        }
        std::size_t j = i;
        while (j < n && plan.due_s[j] <= now && j - i < kMaxSendBatch) ++j;
        if (j == i) {
          const double wait = plan.due_s[i] - now;
          if (wait > 100e-6) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(wait - 80e-6));
          }
          continue;
        }
        batches.push_back({i, j, now});
        const bool whole = send_until(fd, plan.bytes.data() + i * kAdmitFrame,
                                      (j - i) * kAdmitFrame, send_deadline);
        sent.store(j, std::memory_order_release);
        if (!whole) break;  // the server stopped reading: the batch fails
        i = j;
      }
    } catch (const std::exception& e) {
      send_error = e.what();
    }
    send_end_s.store(since_t0(Clock::now()));
    send_done.store(true, std::memory_order_release);
  });

  std::thread receiver([&] {
    pin_current_thread(options.recv_cpu);
    try {
      net::FrameDecoder decoder;
      std::uint64_t got = 0;
      while (true) {
        if (send_done.load(std::memory_order_acquire) &&
            (got >= sent.load(std::memory_order_acquire) ||
             since_t0(Clock::now()) > send_end_s.load() + options.grace_s)) {
          break;
        }
        auto span = decoder.writable(std::size_t{256} << 10);
        const auto r = ::recv(fd, span.data(), span.size(), 0);
        if (r <= 0) {
          decoder.commit(0);
          if (r == 0) throw std::runtime_error("loadgen: server closed the stream");
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
          throw std::runtime_error("loadgen: recv failed");
        }
        decoder.commit(static_cast<std::size_t>(r));
        const double now = since_t0(Clock::now());
        net::Frame frame;
        while (decoder.next_frame(frame)) {
          if (frame.type != net::RecordType::kTicket) {
            ++bad;
            continue;
          }
          util::SnapshotReader reader(frame.payload);
          const std::uint64_t id = reader.u64();
          const server::Ticket ticket = server::read_ticket(reader);
          if (id == 0 || id > n || !std::isnan(latency[id - 1]) ||
              !ticket.admitted) {
            ++bad;
            continue;
          }
          latency[id - 1] = now - plan.due_s[id - 1];
          ++got;
        }
        ticketed.store(got, std::memory_order_relaxed);
      }
    } catch (const std::exception& e) {
      recv_error = e.what();
    }
  });
  sender.join();
  receiver.join();
  if (!send_error.empty()) throw std::runtime_error(send_error);
  if (!recv_error.empty()) throw std::runtime_error(recv_error);

  result.ticketed = ticketed.load();
  result.sent = sent.load();
  result.failed = result.sent - result.ticketed;
  result.aborted = aborted;
  result.outstanding_max = outstanding_max;
  result.bad_tickets = bad;
  const auto timed_from =
      static_cast<std::size_t>(kWarmupShare * static_cast<double>(n));
  std::vector<double> window;
  double window_end = timed_from < n ? plan.due_s[timed_from] + kWindowS : 0.0;
  const auto close_window = [&] {
    if (window.empty()) return;
    result.window_p99_us.push_back(percentiles(window).p99);
    window.clear();
  };
  for (std::size_t i = timed_from; i < n; ++i) {
    while (plan.due_s[i] >= window_end) {
      close_window();
      window_end += kWindowS;
    }
    if (std::isnan(latency[i])) continue;
    result.latency_us.push_back(latency[i] * 1e6);
    window.push_back(latency[i] * 1e6);
  }
  close_window();
  result.late_us.reserve(n);
  for (const Batch& b : batches) {
    for (std::size_t i = b.first; i < b.last; ++i) {
      result.late_us.push_back((b.at_s - plan.due_s[i]) * 1e6);
    }
  }
  return result;
}

RungLatency rung_latency(LoadgenResult& result) {
  RungLatency latency;
  latency.all = percentiles(result.latency_us);
  latency.window_p99_us = median(result.window_p99_us);
  latency.windows = result.window_p99_us.size();
  return latency;
}

}  // namespace perfbench
