// Self-test of the benchmark's own code: nearest-rank percentiles, the
// open-loop generator against a fake server that leaves some admissions
// unticketed (they count as failed) or tickets none (the rung stops
// early), and seed determinism of the deterministic outputs on shrunken
// workloads.
//
// Run: perfbench_selftest   (exit 0 = every check passed)
#include <sys/socket.h>

#include <atomic>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "net/event_loop.h"
#include "net/protocol.h"
#include "server/wire.h"
#include "util/snapshot.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using namespace smerge;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentiles() {
  std::vector<double> hundred = iota(100);
  const Percentiles p = percentiles(hundred);
  expect(p.samples == 100 && p.p50 == 50 && p.p99 == 99 && p.max == 100,
         "nearest rank over 1..100: p50 = 50, p99 = 99, n = 100");
  std::vector<double> ten = iota(10);
  const Percentiles q = percentiles(ten);
  expect(q.samples == 10 && q.p50 == 5 && q.p99 == 10,
         "nearest rank over 1..10: p50 = 5, p99 = rank ceil(9.9) = 10");
  std::vector<double> one{7.5};
  const Percentiles r = percentiles(one);
  expect(r.samples == 1 && r.p50 == 7.5 && r.p99 == 7.5, "a single sample is every percentile");
  std::vector<double> none;
  expect(percentiles(none).samples == 0 && percentiles(none).p99 == 0.0,
         "an empty sample reports 0 with n = 0");
  expect(median({3, 1, 2, 4}) == 2, "median of an even sample is the lower middle (rank n/2)");
}

/// A fake server on one end of a socketpair: tickets every admission
/// except those whose request id is a multiple of `skip_every`.
void fake_server(int fd, std::size_t expected, std::uint64_t skip_every,
                 const std::atomic<bool>& done) {
  net::FrameDecoder decoder;
  std::size_t seen = 0;
  while (seen < expected) {
    auto span = decoder.writable(std::size_t{64} << 10);
    const auto r = ::recv(fd, span.data(), span.size(), 0);
    if (r <= 0) return;
    decoder.commit(static_cast<std::size_t>(r));
    std::vector<std::uint8_t> out;
    net::Frame frame;
    while (decoder.next_frame(frame)) {
      const net::AdmitRecord admit = net::parse_admit(frame.payload);
      ++seen;
      if (admit.request_id % skip_every == 0) continue;
      util::SnapshotWriter w;
      w.u64(admit.request_id);
      server::Ticket ticket;
      ticket.admitted = true;
      ticket.object = admit.object;
      server::write_ticket(w, ticket);
      net::append_frame(out, net::RecordType::kTicket, w.payload());
    }
    std::size_t pos = 0;
    while (pos < out.size()) {
      const auto n = ::send(fd, out.data() + pos, out.size() - pos, MSG_NOSIGNAL);
      if (n <= 0) return;
      pos += static_cast<std::size_t>(n);
    }
  }
  while (!done.load()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

void test_unticketed_count_as_failed() {
  const std::vector<Arrival> trace = merged_arrivals(zipf_workload(16, 1.0 / 2000, 1.0, 3));
  const OpenLoopPlan plan = plan_open_loop(trace, 1.0, 0.05);
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    expect(false, "socketpair");
    return;
  }
  net::FdHandle client(fds[0]);
  net::FdHandle server(fds[1]);
  std::atomic<bool> done{false};
  std::thread fake([&] { fake_server(server.get(), trace.size(), 10, done); });
  OpenLoopOptions options;
  options.grace_s = 0.3;
  LoadgenResult result = run_open_loop(client.get(), plan, options);
  done.store(true);
  fake.join();
  const std::uint64_t skipped = trace.size() / 10;
  expect(result.sent == trace.size() && result.failed == skipped &&
             result.ticketed == trace.size() - skipped,
         "admissions unticketed at the deadline count as failed (" +
             std::to_string(result.failed) + " of " + std::to_string(result.sent) + ")");
  expect(result.late_us.size() == trace.size(), "lateness recorded for every admission");
}

void test_runaway_backlog_stops_the_rung() {
  const std::vector<Arrival> trace = merged_arrivals(zipf_workload(16, 1.0 / 4000, 1.0, 4));
  const OpenLoopPlan plan = plan_open_loop(trace, 1.0, 0.1);
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    expect(false, "socketpair");
    return;
  }
  net::FdHandle client(fds[0]);
  net::FdHandle server(fds[1]);
  std::atomic<bool> done{false};
  // A server that reads everything and tickets nothing.
  std::thread fake([&] { fake_server(server.get(), trace.size(), 1, done); });
  OpenLoopOptions options;
  options.grace_s = 0.1;
  options.p99_limit_us = 1000.0;  // the rung stops at a 10 ms backlog
  LoadgenResult result = run_open_loop(client.get(), plan, options);
  done.store(true);
  ::shutdown(server.get(), SHUT_RDWR);
  fake.join();
  expect(result.aborted && result.sent < trace.size() && result.failed == result.sent,
         "a runaway backlog stops the rung early (" + std::to_string(result.sent) + " of " +
             std::to_string(trace.size()) + " sent, all failed)");
}

void test_merged_trace() {
  const auto a = merged_arrivals(zipf_workload(32, 2.0 / 5000, 2.0, 11));
  const auto b = merged_arrivals(zipf_workload(32, 2.0 / 5000, 2.0, 11));
  const auto c = merged_arrivals(zipf_workload(32, 2.0 / 5000, 2.0, 12));
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].object == b[i].object && a[i].time == b[i].time;
  }
  bool sorted = true;
  for (std::size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i - 1].time <= a[i].time;
  expect(same, "merged trace repeats bit for bit for one seed");
  expect(sorted, "merged trace is in global time order");
  expect(a.size() != c.size() || a.front().time != c.front().time,
         "merged trace changes with the seed");
}

std::map<std::string, double> values(const RunResult& r) {
  std::map<std::string, double> out;
  for (const Metric& m : r.metrics) out[m.name] = m.value;
  return out;
}

template <typename Config, typename Run>
void test_determinism(const std::string& name, const Config& config, Run run,
                      const std::vector<std::string>& untraced_keys,
                      const std::vector<std::string>& traced_keys) {
  const auto once = [&](std::uint64_t seed, bool traced) {
    RunOptions options;
    options.seed = seed;
    options.seconds = 0.01;
    options.trace = traced;
    Tracer tracer(traced);
    const RunResult r = run(config, options, tracer);
    expect(r.check_failures.empty(), name + " seed " + std::to_string(seed) +
                                         (traced ? " traced" : " untraced") +
                                         ": every correctness check passes");
    return values(r);
  };
  const auto a = once(5, false), b = once(5, false), c = once(6, false);
  const auto ta = once(5, true), tb = once(5, true), tc = once(6, true);
  for (const std::string& k : untraced_keys) {
    expect(a.count(k) == 1 && a.at(k) == b.at(k), name + " " + k + " repeats for one seed");
    expect(a.count(k) == 1 && a.at(k) != c.at(k), name + " " + k + " changes with the seed");
  }
  for (const std::string& k : traced_keys) {
    expect(ta.count(k) == 1 && ta.at(k) == tb.at(k), name + " " + k + " repeats for one seed");
    // A channel peak is a small integer (pinned at the budget when the
    // budget binds), so two seeds may share it; every other output moves.
    if (k == "ledger.peak_channels") continue;
    expect(ta.count(k) == 1 && ta.at(k) != tc.at(k), name + " " + k + " changes with the seed");
  }
}

}  // namespace

int main() {
  test_percentiles();
  test_unticketed_count_as_failed();
  test_runaway_backlog_stops_the_rung();
  test_merged_trace();

  ReplayConfig replay;
  replay.objects = 40;
  replay.mean_gap = 5e-4;
  replay.horizon = 5.0;
  test_determinism("replay", replay, run_replay, {"mean_channels", "wait_p99_media"},
                   {"core.arrivals", "core.streams", "ledger.peak_channels"});

  BudgetConfig budget;
  budget.objects = 40;
  budget.mean_gap = 1e-3;
  budget.horizon = 4.0;
  budget.burst_start = 1.0;
  budget.burst_duration = 1.0;
  budget.capacity = 600;
  test_determinism("budget", budget, run_budget,
                   {"mean_channels", "wait_p99_media", "refused_ratio"},
                   {"core.arrivals", "core.streams", "ledger.peak_channels",
                    "core.refused_ratio", "core.defer_probes_per_admit"});

  std::cout << (failures == 0 ? "all checks passed\n" : "SOME CHECKS FAILED\n");
  return failures == 0 ? 0 : 1;
}
