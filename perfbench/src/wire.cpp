// wire: the server's wire path. The end-to-end run replays it in
// process, alternating two passes over one Poisson/Zipf stream of ADMIT
// frames. A saturated pass reads the frames as fast as it can through
// the calls a reactor and the drain driver make (decode -> preview ->
// ticket encode -> post, drain + live_stats every 500 posts) and gives
// the throughput. An open-loop pass offers them at 1M admissions/s,
// drains on vod_server's 500 us timer and encodes each drain's tickets,
// and gives the ticket latency. The traced run also times each of those
// calls, and drives vod_server as a child process open loop over
// loopback at the two fixed rates. Every pass's snapshot digest must
// equal a serial in-process ingest_trace of the same trace.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "net/event_loop.h"
#include "net/protocol.h"
#include "online/policy.h"
#include "server/server_core.h"
#include "server/wire.h"
#include "util/snapshot.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace smerge;

constexpr std::int64_t kObjects = 256;
constexpr double kHorizon = 20.0;
constexpr double kDelay = 0.01;
constexpr unsigned kServerShards = 2;  ///< the loopback server's shards
/// Shards of the in-process wire path. One drains inline: with two,
/// each 500-post drain crosses to the pool, which on a VM with CPU
/// steal made the path's p99 4-6 ms and unsteady (1.0-1.2 ms inline).
/// The traced run reports the two-shard cost as a ratio.
constexpr unsigned kPathShards = 1;
constexpr double kAdmits = 2e6;  ///< expected admissions of the in-process trace
/// Posts per drain of the saturated pass: vod_server's drain cadence at
/// the high fixed rate.
constexpr std::size_t kAdmitsPerDrain = 500;
/// vod_server's default drain cadence (--drain-us).
constexpr std::chrono::microseconds kDrainInterval{500};
/// Offered rate of the open-loop pass: the loopback's high fixed rate,
/// below what the path sustains in process (1.3-2M admissions/s).
constexpr double kOpenLoopRate = 1e6;
constexpr double kLowRate = 250e3;  ///< loopback fixed rates (traced run)
constexpr double kHighRate = 1e6;

/// A Poisson/Zipf trace of about `expected` admissions over the horizon.
std::vector<Arrival> wire_trace(double expected, std::uint64_t seed) {
  return merged_arrivals(zipf_workload(kObjects, kHorizon / expected, kHorizon, seed));
}

/// vod_server --listen as a child process: spawned with its stdout on a
/// pipe, ready once it prints its "listening on host:port" line. The
/// destructor kills and reaps a child that is still running.
class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& args, const std::vector<int>& cpus) {
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus) CPU_SET(cpu, &set);
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("wire: pipe failed");
    const Clock::time_point spawn = Clock::now();
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("wire: fork failed");
    if (pid_ == 0) {
      if (!cpus.empty()) sched_setaffinity(0, sizeof set, &set);
      dup2(fds[1], STDOUT_FILENO);
      execv(argv[0], argv.data());
      _exit(127);
    }
    ::close(fds[1]);
    out_ = net::FdHandle(fds[0]);
    std::string line;
    while (port_ == 0) {
      line = read_line(10.0);
      const auto at = line.find("listening on ");
      if (at == std::string::npos) continue;
      const auto colon = line.find(':', at);
      port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
    }
    ready_s_ = seconds_between(spawn, Clock::now());
  }
  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] double ready_s() const noexcept { return ready_s_; }

  /// Waits for the child to exit on its own (killing it after
  /// `timeout_s`); returns its peak RSS in MB and whether it exited 0.
  std::pair<double, bool> wait_exit(double timeout_s) {
    const Clock::time_point start = Clock::now();
    int status = 0;
    rusage usage{};
    while (true) {
      drain_output();
      const pid_t r = wait4(pid_, &status, WNOHANG, &usage);
      if (r == pid_) break;
      if (seconds_between(start, Clock::now()) > timeout_s) {
        kill(pid_, SIGKILL);
        wait4(pid_, &status, 0, &usage);
        status = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    const bool clean = status != -1 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return {static_cast<double>(usage.ru_maxrss) / 1024.0, clean};
  }

 private:
  std::string read_line(double timeout_s) {
    std::string line;
    char c = 0;
    while (true) {
      pollfd p{out_.get(), POLLIN, 0};
      if (poll(&p, 1, static_cast<int>(timeout_s * 1000)) <= 0) {
        throw std::runtime_error("wire: vod_server did not report its port");
      }
      if (::read(out_.get(), &c, 1) != 1) {
        throw std::runtime_error("wire: vod_server exited before listening");
      }
      if (c == '\n') return line;
      line.push_back(c);
    }
  }
  void drain_output() {
    char buf[4096];
    pollfd p{out_.get(), POLLIN, 0};
    while (poll(&p, 1, 0) > 0 && ::read(out_.get(), buf, sizeof buf) > 0) {
    }
  }

  pid_t pid_ = -1;
  net::FdHandle out_;
  std::uint16_t port_ = 0;
  double ready_s_ = 0.0;
};

/// The net counters the server's GET /stats reports.
struct NetStats {
  double drains = 0, admits = 0, tickets = 0, bytes_in = 0, bytes_out = 0;
  double protocol_errors = 0, closed = 0;
};

double json_number(const std::string& body, const std::string& key) {
  const auto at = body.find("\"" + key + "\"");
  if (at == std::string::npos) throw std::runtime_error("wire: /stats lacks " + key);
  const auto colon = body.find(':', at);
  return std::strtod(body.c_str() + colon + 1, nullptr);
}

NetStats get_stats(std::uint16_t port) {
  net::FdHandle fd = net::connect_tcp("127.0.0.1", port);
  const std::string request = "GET /stats HTTP/1.1\r\nHost: bench\r\n\r\n";
  if (::send(fd.get(), request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    throw std::runtime_error("wire: /stats request failed");
  }
  std::string body;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd.get(), buf, sizeof buf, 0)) > 0) body.append(buf, static_cast<std::size_t>(n));
  const auto net_at = body.find("\"net\"");
  if (net_at == std::string::npos) throw std::runtime_error("wire: bad /stats reply");
  const std::string net = body.substr(net_at);
  NetStats s;
  s.drains = json_number(net, "drains");
  s.admits = json_number(net, "admits");
  s.tickets = json_number(net, "tickets");
  s.bytes_in = json_number(net, "bytes_in");
  s.bytes_out = json_number(net, "bytes_out");
  s.protocol_errors = json_number(net, "protocol_errors");
  s.closed = json_number(net, "closed");
  return s;
}

/// Sends FINISH and waits for FINISHED on the admission connection.
server::WireSummary finish_run(int fd) {
  std::vector<std::uint8_t> out;
  net::append_frame(out, net::RecordType::kFinish, {});
  if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(out.size())) {
    throw std::runtime_error("wire: FINISH send failed");
  }
  net::FrameDecoder decoder;
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < 30.0) {
    auto span = decoder.writable(std::size_t{64} << 10);
    const auto r = ::recv(fd, span.data(), span.size(), 0);
    if (r == 0) break;
    decoder.commit(r > 0 ? static_cast<std::size_t>(r) : 0);
    net::Frame frame;
    while (decoder.next_frame(frame)) {
      if (frame.type != net::RecordType::kFinished) continue;
      util::SnapshotReader reader(frame.payload);
      return server::read_summary(reader);
    }
  }
  throw std::runtime_error("wire: no FINISHED reply");
}

server::ServerCoreConfig core_config(unsigned shards) {
  server::ServerCoreConfig core;
  core.objects = kObjects;
  core.delay = kDelay;
  core.horizon = kHorizon;
  core.shards = shards;
  return core;
}

/// Digest of a serial, one-shot ingest_trace run of `trace`.
std::uint64_t reference_digest(const std::vector<Arrival>& trace) {
  DelayGuaranteedPolicy policy;
  server::ServerCore core(core_config(1), policy);
  std::vector<std::vector<double>> per_object(static_cast<std::size_t>(kObjects));
  for (const Arrival& a : trace) {
    per_object[static_cast<std::size_t>(a.object)].push_back(a.time);
  }
  for (std::int64_t m = 0; m < kObjects; ++m) {
    core.ingest_trace(m, std::move(per_object[static_cast<std::size_t>(m)]));
  }
  core.finish();
  return server::snapshot_digest(core.take_snapshot());
}

struct Rung {
  LoadgenResult loadgen;
  RungLatency latency;
  NetStats net;                ///< counters over the send window
  double net_window_s = 0.0;   ///< wall time the counters cover
  server::WireSummary summary;
  double setup_s = 0.0;
  double rss_mb = 0.0;
  bool digest_ok = false;
  bool exited_clean = false;
};

Rung run_rung(const std::string& server_path, double rate, double duration_s,
              std::uint64_t seed, const std::vector<int>& cpus, Tracer& tracer) {
  Rung rung;
  const std::vector<Arrival> trace = wire_trace(rate * duration_s, seed);
  const OpenLoopPlan plan = plan_open_loop(trace, kHorizon, duration_s);

  const std::vector<std::string> args{
      server_path, "--listen", "--policy=dg",
      "--objects=" + std::to_string(kObjects),
      "--shards=" + std::to_string(kServerShards), "--reactors=1",
      "--delay=" + std::to_string(kDelay),
      "--horizon=" + std::to_string(kHorizon)};
  const std::vector<int> server_cpus =
      cpus.size() >= 4 ? std::vector<int>{cpus[0], cpus[1]} : std::vector<int>{};
  OpenLoopOptions loop;
  if (cpus.size() >= 4) {
    loop.send_cpu = cpus[2];
    loop.recv_cpu = cpus[3];
  }
  const int spawn_span = tracer.open("wire.spawn");
  ServerProcess server(args, server_cpus);
  tracer.close(spawn_span);
  rung.setup_s = server.ready_s();
  net::FdHandle fd = net::connect_tcp("127.0.0.1", server.port());

  const NetStats before = get_stats(server.port());
  const Clock::time_point window_start = Clock::now();
  {
    Tracer::Scope span(tracer, "loadgen.open_loop");
    rung.loadgen = run_open_loop(fd.get(), plan, loop);
  }
  const NetStats after = get_stats(server.port());
  rung.net_window_s = seconds_between(window_start, Clock::now());
  rung.net.drains = after.drains - before.drains;
  rung.net.admits = after.admits - before.admits;
  rung.net.tickets = after.tickets - before.tickets;
  rung.net.bytes_in = after.bytes_in - before.bytes_in;
  rung.net.bytes_out = after.bytes_out - before.bytes_out;
  rung.net.protocol_errors = after.protocol_errors;
  rung.net.closed = after.closed;
  rung.latency = rung_latency(rung.loadgen);

  // A rung whose admissions did not all come back has no run to certify:
  // the server is stopped instead of finished.
  if (rung.loadgen.failed == 0) {
    Tracer::Scope span(tracer, "wire.finish");
    rung.summary = finish_run(fd.get());
  }
  fd.reset();
  std::tie(rung.rss_mb, rung.exited_clean) =
      server.wait_exit(rung.loadgen.failed == 0 ? 30.0 : 0.0);
  if (rung.summary.ok) {
    Tracer::Scope span(tracer, "wire.reference_digest");
    // A rung stopped early served only the admissions it sent: a prefix.
    const std::vector<Arrival> sent(
        trace.begin(), trace.begin() + static_cast<std::ptrdiff_t>(rung.loadgen.sent));
    rung.digest_ok = rung.summary.digest == reference_digest(sent);
  }
  rung.loadgen.latency_us = {};
  return rung;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// One saturated pass of the wire path in process over `bytes`: decode
/// -> preview -> ticket encode -> post per ADMIT, read in 64 KB chunks,
/// and drain + live_stats every kAdmitsPerDrain posts. With `timed`,
/// each call is also timed on its own.
struct WirePath {
  CallTimer decode, preview, encode, post, drain, live;
  double wall_s = 0.0;  ///< first read -> take_snapshot returned
  double finish_ms = 0.0;
  server::Snapshot snapshot;
  std::uint64_t digest = 0;
};

WirePath wire_path(const std::vector<std::uint8_t>& bytes, unsigned shards, bool timed) {
  WirePath out;
  DelayGuaranteedPolicy policy;
  server::ServerCore core(core_config(shards), policy);
  net::FrameDecoder decoder;
  std::vector<std::uint8_t> wire_out;
  util::SnapshotWriter writer;
  std::size_t posted = 0;  ///< since the last drain
  constexpr std::size_t kChunk = std::size_t{64} << 10;
  const auto timed_call = [&](CallTimer& timer, auto&& call) {
    if (!timed) {
      call();
      return;
    }
    const Clock::time_point a = Clock::now();
    call();
    timer.record(a, Clock::now());
  };
  const Clock::time_point start = Clock::now();
  for (std::size_t pos = 0; pos < bytes.size(); pos += kChunk) {
    const std::size_t len = std::min(kChunk, bytes.size() - pos);
    timed_call(out.decode, [&] { decoder.feed({bytes.data() + pos, len}); });
    while (true) {
      net::Frame frame;
      net::AdmitRecord admit;
      bool more = false;
      timed_call(out.decode, [&] {
        more = decoder.next_frame(frame);
        if (more) admit = net::parse_admit(frame.payload);
      });
      if (!more) break;
      server::Ticket ticket;
      timed_call(out.preview, [&] { ticket = core.preview_admission(admit.object, admit.time); });
      timed_call(out.encode, [&] {
        const std::size_t base = writer.size();
        writer.u64(admit.request_id);
        server::write_ticket(writer, ticket);
        net::append_frame(wire_out, net::RecordType::kTicket, writer.payload().subspan(base));
      });
      timed_call(out.post, [&] { core.post(admit.object, admit.time); });
      if (++posted >= kAdmitsPerDrain) {
        timed_call(out.drain, [&] { core.drain(); });
        timed_call(out.live, [&] { (void)core.live_stats(); });
        posted = 0;
        // The reactor hands its buffers to the socket; reuse them.
        wire_out.clear();
        writer = util::SnapshotWriter();
      }
    }
  }
  const Clock::time_point finish_start = Clock::now();
  core.finish();
  out.finish_ms = seconds_between(finish_start, Clock::now()) * 1e3;
  out.snapshot = core.take_snapshot();
  out.wall_s = seconds_between(start, Clock::now());
  out.digest = server::snapshot_digest(out.snapshot);
  return out;
}

/// CPU time of the calling thread.
std::chrono::nanoseconds thread_cpu_now() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return std::chrono::seconds(t.tv_sec) + std::chrono::nanoseconds(t.tv_nsec);
}

/// ADMIT frames of `trace` back to back (request id = index + 1), with
/// the byte offset at which each frame ends.
struct AdmitStream {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> frame_end;
};

AdmitStream encode_admits(const std::vector<Arrival>& trace) {
  AdmitStream out;
  out.frame_end.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    net::append_admit(out.bytes, i + 1, trace[i].object, trace[i].time);
    out.frame_end.push_back(out.bytes.size());
  }
  return out;
}

/// One open-loop pass of the wire path in process, served the way
/// vod_server serves one connection: each ADMIT frame becomes readable
/// at its due time (its trace time, scaled so the trace is offered at
/// kOpenLoopRate) and is decoded and posted at once; on every tick of a
/// kDrainInterval timer, drain() + live_stats() run, and every admission
/// posted before the drain gets its ticket (preview_admission +
/// write_ticket + append_frame), as NetServer's flush_tickets does.
/// Ticket latency runs from an admission's due time to the end of its
/// drain's ticket encoding.
///
/// The pass keeps time on the thread's CPU clock, not the wall clock:
/// a shared VM loses its vCPU for 1-5 ms at a time, 1-2% of wall time
/// in all, which at 1M/s would put those stalls, not the server, at the
/// p99. Page faults and system calls still count: they are CPU time.
struct OpenLoopPass {
  std::vector<double> latency_us;  ///< one per admission
  std::uint64_t digest = 0;
};

OpenLoopPass open_loop_path(const AdmitStream& stream, const std::vector<Arrival>& trace) {
  OpenLoopPass out;
  DelayGuaranteedPolicy policy;
  server::ServerCore core(core_config(kPathShards), policy);
  net::FrameDecoder decoder;
  std::vector<std::uint8_t> wire_out;
  util::SnapshotWriter writer;
  struct Pending {
    net::AdmitRecord admit;
    std::chrono::nanoseconds due;
  };
  std::vector<Pending> pending;
  const std::size_t n = trace.size();
  out.latency_us.reserve(n);  // no reallocation on the timed path
  const double s_per_unit = static_cast<double>(n) / kOpenLoopRate / kHorizon;
  const std::chrono::nanoseconds start = thread_cpu_now();
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::duration<double>(trace[i].time * s_per_unit));
  };
  std::chrono::nanoseconds tick = start + kDrainInterval;
  std::size_t next = 0;  ///< first frame not yet readable
  while (next < n || !pending.empty()) {
    const std::chrono::nanoseconds now = thread_cpu_now();
    std::size_t readable = next;
    while (readable < n && due(readable) <= now) ++readable;
    if (readable > next) {
      const std::size_t from = next == 0 ? 0 : stream.frame_end[next - 1];
      decoder.feed({stream.bytes.data() + from, stream.frame_end[readable - 1] - from});
      net::Frame frame;
      while (decoder.next_frame(frame)) {
        const net::AdmitRecord admit = net::parse_admit(frame.payload);
        core.post(admit.object, admit.time);
        pending.push_back({admit, due(next++)});
      }
    }
    if (now < tick) continue;
    core.drain();
    (void)core.live_stats();
    for (const Pending& p : pending) {
      const std::size_t base = writer.size();
      writer.u64(p.admit.request_id);
      server::write_ticket(writer, core.preview_admission(p.admit.object, p.admit.time));
      net::append_frame(wire_out, net::RecordType::kTicket, writer.payload().subspan(base));
    }
    const std::chrono::nanoseconds released = thread_cpu_now();
    for (const Pending& p : pending) {
      out.latency_us.push_back(std::chrono::duration<double, std::micro>(released - p.due).count());
    }
    pending.clear();
    wire_out.clear();
    writer = util::SnapshotWriter();
    // A periodic timer: ticks missed while draining are skipped.
    while (tick <= released) tick += kDrainInterval;
  }
  core.finish();
  out.digest = server::snapshot_digest(core.take_snapshot());
  return out;
}

}  // namespace

RunResult run_wire(const std::string& server_path, const RunOptions& options,
                   Tracer& tracer) {
  RunResult result;
  // Before the trace is made, so every run times its constructions from
  // the same fresh heap.
  const double setup_s = median_setup_s([&] {
    DelayGuaranteedPolicy policy;
    server::ServerCore core(core_config(kPathShards), policy);
  });
  const std::vector<Arrival> trace = wire_trace(kAdmits, options.seed);
  const AdmitStream stream = encode_admits(trace);
  const std::vector<std::uint8_t>& bytes = stream.bytes;
  const auto n = static_cast<std::uint64_t>(trace.size());

  if (!options.trace) {
    // Saturated and open-loop passes alternate, so both see the same
    // stretches of the host's speed. The ticket percentiles pool every
    // open-loop pass: a few host stalls of milliseconds per pass sit
    // near the p99, so one pass's p99 jumps with their count.
    std::vector<double> rate, latency_us;
    std::vector<WirePath> passes;
    std::vector<std::uint64_t> open_digests;
    double rss_mb = 0.0;
    const Clock::time_point start = Clock::now();
    do {
      WirePath pass = wire_path(bytes, kPathShards, false);
      rate.push_back(static_cast<double>(n) / pass.wall_s);
      passes.push_back(std::move(pass));
      // After the first pass: later passes reuse its memory.
      if (passes.size() == 1) rss_mb = self_peak_rss_mb();
      const OpenLoopPass open = open_loop_path(stream, trace);
      latency_us.insert(latency_us.end(), open.latency_us.begin(), open.latency_us.end());
      open_digests.push_back(open.digest);
    } while (seconds_between(start, Clock::now()) < options.seconds);
    // The reference run comes after the RSS sample, so its own peak
    // cannot hide the wire path's.
    const std::uint64_t reference = reference_digest(trace);
    for (const WirePath& pass : passes) {
      result.check(pass.digest == reference, "wire: digest == serial ingest_trace digest");
    }
    for (const std::uint64_t digest : open_digests) {
      result.check(digest == reference, "wire open loop: digest == serial ingest_trace digest");
    }
    const server::Snapshot& first = passes.front().snapshot;
    result.attempted = n * (passes.size() + open_digests.size());
    result.add("setup_s", setup_s, "s", kSetupSamples);
    result.add("arrivals_per_s", median(rate), "1/s", rate.size());
    const Percentiles ticket = percentiles(latency_us);
    result.add("ticket_p50_us", ticket.p50, "us", ticket.samples);
    result.add("ticket_p99_us", ticket.p99, "us", ticket.samples);
    result.add("peak_rss_mb", rss_mb, "MB", 1);
    result.add("mean_channels", first.streams_served / kHorizon, "channels", 1);
    result.add("wait_p99_media", first.wait.p99, "media",
               static_cast<std::size_t>(first.total_arrivals));
    return result;
  }

  // Per-call timings of the wire path, and the same pass untimed.
  const std::uint64_t reference = reference_digest(trace);
  const WirePath plain = wire_path(bytes, kPathShards, false);
  WirePath timed;
  {
    Tracer::Scope span(tracer, "wire.path_timed");
    timed = wire_path(bytes, kPathShards, true);
  }
  WirePath pooled;
  {
    Tracer::Scope span(tracer, "wire.path_server_shards");
    pooled = wire_path(bytes, kServerShards, false);
  }
  result.check(plain.digest == reference && timed.digest == reference &&
                   pooled.digest == reference,
               "wire path: digest == serial ingest_trace digest");
  result.attempted = 3 * n;
  result.add("core.wire_shards_ratio", pooled.wall_s / plain.wall_s, "ratio", 1);
  result.add("protocol.decode_ns", timed.decode.mean_ns(), "ns", timed.decode.ns.size());
  result.add("core.preview_ns", timed.preview.mean_ns(), "ns", timed.preview.ns.size());
  result.add("protocol.ticket_encode_ns", timed.encode.mean_ns(), "ns", timed.encode.ns.size());
  result.add("core.post_ns", timed.post.mean_ns(), "ns", timed.post.ns.size());
  std::vector<double> drain_us;
  for (const double ns : timed.drain.ns) drain_us.push_back(ns / 1e3);
  const Percentiles drain_p = percentiles(drain_us);
  result.add("core.drain_us_p50", drain_p.p50, "us", drain_p.samples);
  result.add("core.drain_us_p99", drain_p.p99, "us", drain_p.samples);
  result.add("core.live_stats_us", median(timed.live.ns) / 1e3, "us", timed.live.ns.size());
  result.add("core.finish_ms", timed.finish_ms, "ms", 1);
  result.add("core.arrivals", static_cast<double>(timed.snapshot.total_arrivals), "count", 1);
  result.add("core.streams", static_cast<double>(timed.snapshot.total_streams), "count", 1);
  result.add("ledger.peak_channels", static_cast<double>(timed.snapshot.peak_concurrency),
             "count", 1);
  result.add("trace.overhead_ratio", timed.wall_s / plain.wall_s, "ratio", 1);

  // The loopback open loop against vod_server, at the two fixed rates.
  const std::vector<int> cpus = allowed_cpus();
  // A quarter of the run per rate, at most 5 s: at 1M/s that is already
  // 5M admissions and ~1 GB of server memory.
  const double duration_s = std::min(options.seconds / 4.0, 5.0);
  std::vector<Rung> rungs;
  for (const double rate : {kLowRate, kHighRate}) {
    tracer.next_run();
    rungs.push_back(run_rung(server_path, rate, duration_s,
                             options.seed * 64 + rungs.size() + 1, cpus, tracer));
    const Rung& rung = rungs.back();
    const std::string at = " at " + std::to_string(static_cast<long>(rate)) + "/s";
    result.attempted += rung.loadgen.sent;
    result.failed += rung.loadgen.failed;
    result.check(rung.loadgen.failed == 0 && !rung.loadgen.aborted,
                 "loopback: every admission ticketed" + at);
    result.check(rung.loadgen.bad_tickets == 0, "loopback: no refused or unknown tickets" + at);
    result.check(rung.digest_ok, "loopback: FINISHED digest == serial ingest_trace digest" + at);
    result.check(rung.exited_clean, "loopback: vod_server exited cleanly" + at);
  }
  const Rung& low = rungs[0];
  const Rung& high = rungs[1];
  result.add("ticket_p50_us.low", low.latency.all.p50, "us", low.latency.all.samples);
  result.add("ticket_p99_us.low", low.latency.window_p99_us, "us", low.latency.windows);
  result.add("ticket_p50_us.high", high.latency.all.p50, "us", high.latency.all.samples);
  result.add("ticket_p99_us.high", high.latency.window_p99_us, "us", high.latency.windows);
  result.add("ticket_p99_us.high_whole_rung", high.latency.all.p99, "us",
             high.latency.all.samples);
  std::vector<double> late = high.loadgen.late_us;
  const Percentiles late_p = percentiles(late);
  result.add("loadgen.late_p99_us", late_p.p99, "us", late_p.samples);
  result.add("loadgen.late_max_us", late_p.max, "us", late_p.samples);
  result.add("net.outstanding_max", static_cast<double>(high.loadgen.outstanding_max), "count", 1);
  result.add("net.drains_per_s", high.net.drains / high.net_window_s, "1/s", 1);
  result.add("net.admits_per_drain", high.net.admits / high.net.drains, "count", 1);
  result.add("net.bytes_in_per_admit", high.net.bytes_in / high.net.admits, "B", 1);
  result.add("net.bytes_out_per_ticket", high.net.bytes_out / high.net.tickets, "B", 1);
  result.add("net.protocol_errors", high.net.protocol_errors, "count", 1);
  result.add("net.closed", high.net.closed, "count", 1);
  result.add("net.server_setup_s", median({low.setup_s, high.setup_s}), "s", 2);
  result.add("net.server_peak_rss_mb", high.rss_mb, "MB", 1);
  return result;
}

}  // namespace perfbench
