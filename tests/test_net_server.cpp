// NetServer end-to-end over loopback: wire-fed runs must be
// indistinguishable from trace-fed runs (the determinism acceptance for
// the network front end — snapshot digests identical at shard widths 1,
// 2 and 4, with and without connection churn), tickets must carry the
// construction-time slot arithmetic, the control plane (PING / STATS /
// FINISH) must round-trip, the HTTP debug surface must answer on the
// same port, and transport failures (double bind, garbage bytes,
// per-connection contract violations) must stay contained to their
// connection.
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "merging/batching.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/server.h"
#include "online/policy.h"
#include "server/server_core.h"
#include "server/wire.h"

namespace smerge::net {
namespace {

constexpr double kDelay = 0.01;

/// A small deterministic catalogue: object m gets arrivals at
/// m*1e-3 + k*7.3e-3 — dense enough that batches share slots, spread
/// enough that every object differs.
std::vector<std::vector<double>> make_traces(Index objects, int per_object) {
  std::vector<std::vector<double>> traces(static_cast<std::size_t>(objects));
  for (Index m = 0; m < objects; ++m) {
    for (int k = 0; k < per_object; ++k) {
      traces[static_cast<std::size_t>(m)].push_back(
          static_cast<double>(m) * 1e-3 + static_cast<double>(k) * 7.3e-3);
    }
  }
  return traces;
}

server::ServerCoreConfig core_config(Index objects, unsigned shards) {
  server::ServerCoreConfig config;
  config.objects = objects;
  config.delay = kDelay;
  config.horizon = 10.0;
  config.shards = shards;
  return config;
}

/// Serial trace-fed run — the reference every wire run must match.
std::uint64_t reference_digest(const std::vector<std::vector<double>>& traces,
                               server::Snapshot* out = nullptr) {
  BatchingPolicy policy;
  server::ServerCore core(core_config(static_cast<Index>(traces.size()), 2),
                          policy);
  for (std::size_t m = 0; m < traces.size(); ++m) {
    core.ingest_trace(static_cast<Index>(m), std::vector<double>(traces[m]));
  }
  core.finish();
  server::Snapshot snap = core.take_snapshot();
  const std::uint64_t digest = server::snapshot_digest(snap);
  if (out != nullptr) *out = std::move(snap);
  return digest;
}

bool snapshots_match(const server::Snapshot& a, const server::Snapshot& b) {
  return a.total_arrivals == b.total_arrivals &&
         a.total_streams == b.total_streams &&
         a.streams_served == b.streams_served &&
         a.peak_concurrency == b.peak_concurrency &&
         a.guarantee_violations == b.guarantee_violations &&
         a.wait.mean == b.wait.mean && a.wait.max == b.wait.max &&
         a.wait.p50 == b.wait.p50 && a.wait.p95 == b.wait.p95 &&
         a.wait.p99 == b.wait.p99 && a.per_object == b.per_object;
}

/// Sends `traces` over `clients` connections (objects round-robin, each
/// connection time-ordered), collects every ticket, FINISHes, and
/// returns the server's summary. `churn_every` > 0 reconnects each
/// client after that many admissions.
server::WireSummary drive_wire(NetServer& server,
                               const std::vector<std::vector<double>>& traces,
                               unsigned clients, std::uint64_t churn_every = 0,
                               std::vector<server::Ticket>* tickets = nullptr) {
  std::mutex tickets_mutex;
  auto worker = [&](unsigned who) {
    std::vector<std::pair<double, Index>> sends;
    for (std::size_t m = who; m < traces.size(); m += clients) {
      for (const double t : traces[m]) sends.emplace_back(t, static_cast<Index>(m));
    }
    std::stable_sort(sends.begin(), sends.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    BlockingClient client;
    client.connect("127.0.0.1", server.port());
    std::uint64_t sent = 0, acked = 0;
    const auto on_ticket = [&](const TicketReply& reply) {
      if (tickets != nullptr) {
        const std::lock_guard<std::mutex> lock(tickets_mutex);
        tickets->push_back(reply.ticket);
      }
      (void)reply;
    };
    const auto collect = [&] {
      client.flush();
      while (acked < sent) acked += client.poll_tickets(on_ticket);
    };
    for (const auto& [time, object] : sends) {
      if (churn_every > 0 && sent > 0 && sent % churn_every == 0) {
        collect();
        client.close();
        client.connect("127.0.0.1", server.port());
      }
      (void)client.admit(object, time);
      ++sent;
    }
    collect();
    client.close();
  };
  {
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) threads.emplace_back(worker, c);
    for (auto& t : threads) t.join();
  }
  BlockingClient control;
  control.connect("127.0.0.1", server.port());
  const server::WireSummary summary = control.finish();
  control.close();
  EXPECT_TRUE(server.wait_finished(std::chrono::seconds(30)));
  return summary;
}

// The acceptance identity: wire-fed and trace-fed snapshots are
// byte-identical (same digest, same fields) at shard widths 1, 2 and 4.
TEST(NetServer, WireMatchesTraceAtShardWidths) {
  const auto traces = make_traces(24, 40);
  server::Snapshot reference;
  const std::uint64_t expected = reference_digest(traces, &reference);
  for (const unsigned shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    BatchingPolicy policy;
    NetServerConfig net;
    net.reactors = 2;
    net.drain_interval_us = 200;
    NetServer server(net, core_config(24, shards), policy);
    server.start();
    const server::WireSummary summary = drive_wire(server, traces, 2);
    EXPECT_TRUE(summary.ok);
    EXPECT_EQ(summary.digest, expected);
    EXPECT_TRUE(snapshots_match(server.snapshot(), reference));
    EXPECT_EQ(summary.total_arrivals, reference.total_arrivals);
    server.stop();
  }
}

// Connection churn (reconnect mid-stream) must not perturb results: an
// object's arrival order survives because it never leaves its client.
TEST(NetServer, ChurnPreservesIdentity) {
  const auto traces = make_traces(16, 30);
  const std::uint64_t expected = reference_digest(traces);
  BatchingPolicy policy;
  NetServerConfig net;
  net.drain_interval_us = 200;
  NetServer server(net, core_config(16, 2), policy);
  server.start();
  const server::WireSummary summary =
      drive_wire(server, traces, 3, /*churn_every=*/50);
  EXPECT_TRUE(summary.ok);
  EXPECT_EQ(summary.digest, expected);
  server.stop();
}

// Tickets carry the batching preview: playback at batch_start_of, wait
// derived from it, admitted always (the generic policy path rejects
// nothing at admission).
TEST(NetServer, TicketsCarryBatchArithmetic) {
  const auto traces = make_traces(8, 10);
  BatchingPolicy policy;
  NetServerConfig net;
  net.drain_interval_us = 200;
  NetServer server(net, core_config(8, 2), policy);
  server.start();
  std::vector<server::Ticket> tickets;
  const server::WireSummary summary =
      drive_wire(server, traces, 1, 0, &tickets);
  EXPECT_TRUE(summary.ok);
  ASSERT_EQ(tickets.size(), 8u * 10u);
  for (const server::Ticket& t : tickets) {
    EXPECT_TRUE(t.admitted);
    const double expected_start = merging::batch_start_of(t.arrival, kDelay);
    EXPECT_EQ(t.playback_start, expected_start);
    EXPECT_EQ(t.wait, expected_start - t.arrival);
    EXPECT_EQ(t.guarantee_wait, expected_start - t.decision_time);
    EXPECT_LE(t.wait, kDelay + 1e-12);
    EXPECT_EQ(t.deferred_slots, 0);
    EXPECT_FALSE(t.degraded);
  }
  server.stop();
}

TEST(NetServer, PingAndStatsRoundTrip) {
  BatchingPolicy policy;
  NetServerConfig net;
  net.drain_interval_us = 200;
  NetServer server(net, core_config(4, 1), policy);
  server.start();
  BlockingClient client;
  client.connect("127.0.0.1", server.port());
  EXPECT_EQ(client.ping(0x5EED), 0x5EEDu);
  for (int k = 0; k < 10; ++k) {
    (void)client.admit(k % 4, 0.001 * k);
  }
  client.flush();
  // Collect every ticket first — ping()/stats() block on the shared
  // stream and would silently consume (and discard) ticket frames.
  std::size_t got = 0;
  while (got < 10) got += client.poll_tickets(nullptr);
  // A ticket certifies a completed drain covering its admit, so the
  // cached stats converge immediately; the retry absorbs the refresh
  // race between the drain counter and the stats cache.
  server::LiveStats live = client.stats();
  for (int tries = 0; live.arrivals < 10 && tries < 500; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    live = client.stats();
  }
  EXPECT_EQ(live.arrivals, 10);
  EXPECT_EQ(live.admitted, 10);
  EXPECT_EQ(client.ping(77), 77u);
  client.close();
  server.stop();
}

/// Raw HTTP GET against the shared port; returns everything until the
/// server closes.
std::string http_get(std::uint16_t port, const std::string& request) {
  FdHandle fd = connect_tcp("127.0.0.1", port);
  std::size_t at = 0;
  while (at < request.size()) {
    const auto n = ::send(fd.get(), request.data() + at, request.size() - at,
                          MSG_NOSIGNAL);
    if (n < 0) throw_errno("send");
    at += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  while (true) {
    const auto n = ::recv(fd.get(), buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  return response;
}

TEST(NetServer, HttpDebugSurface) {
  BatchingPolicy policy;
  NetServerConfig net;
  net.drain_interval_us = 200;
  NetServer server(net, core_config(4, 2), policy);
  server.start();
  const std::string live =
      http_get(server.port(), "GET /live HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(live.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(live.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(live.find("\"arrivals\""), std::string::npos);
  const std::string stats =
      http_get(server.port(), "GET /stats HTTP/1.1\r\n\r\n");
  EXPECT_NE(stats.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(stats.find("\"net\""), std::string::npos);
  EXPECT_NE(stats.find("\"accepted\""), std::string::npos);
  const std::string dispatch =
      http_get(server.port(), "GET /dispatch HTTP/1.1\r\n\r\n");
  EXPECT_NE(dispatch.find("\"policy\""), std::string::npos);
  const std::string missing =
      http_get(server.port(), "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
  const std::string post =
      http_get(server.port(), "POST /live HTTP/1.1\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_GE(server.counters().http_requests, 5u);
  server.stop();
}

TEST(NetServer, DoubleBindThrowsSystemError) {
  BatchingPolicy policy;
  NetServerConfig net;
  NetServer first(net, core_config(2, 1), policy);
  first.start();
  NetServerConfig clash;
  clash.port = first.port();
  NetServer second(clash, core_config(2, 1), policy);
  EXPECT_THROW(second.start(), std::system_error);
  first.stop();
}

// A garbage stream (bad magic after the binary sniff byte) kills only
// its own connection; the server keeps serving and finishing.
TEST(NetServer, ProtocolErrorIsContainedToItsConnection) {
  const auto traces = make_traces(6, 8);
  const std::uint64_t expected = reference_digest(traces);
  BatchingPolicy policy;
  NetServerConfig net;
  net.drain_interval_us = 200;
  NetServer server(net, core_config(6, 2), policy);
  server.start();

  // 'S' selects the binary protocol, then nonsense: ProtocolError.
  FdHandle bad = connect_tcp("127.0.0.1", server.port());
  const char junk[] = "SMNX garbage that is not a frame header....";
  ASSERT_GT(::send(bad.get(), junk, sizeof junk - 1, MSG_NOSIGNAL), 0);
  char buf[64];
  EXPECT_EQ(::recv(bad.get(), buf, sizeof buf, 0), 0)
      << "server must close the bad connection";
  bad.reset();

  const server::WireSummary summary = drive_wire(server, traces, 2);
  EXPECT_TRUE(summary.ok);
  EXPECT_EQ(summary.digest, expected);
  EXPECT_GE(server.counters().protocol_errors, 1u);
  server.stop();
}

// The per-connection contract: ADMIT times must be nondecreasing. A
// violation closes the connection before the bad post can poison the
// drain (which would fail the whole run).
TEST(NetServer, DecreasingAdmitTimeClosesConnection) {
  BatchingPolicy policy;
  NetServerConfig net;
  net.drain_interval_us = 200;
  NetServer server(net, core_config(4, 2), policy);
  server.start();
  FdHandle fd = connect_tcp("127.0.0.1", server.port());
  std::vector<std::uint8_t> out;
  append_admit(out, 1, 0, 1.0);
  append_admit(out, 2, 1, 0.5);  // goes backwards: contract violation
  ASSERT_GT(::send(fd.get(), out.data(), out.size(), MSG_NOSIGNAL), 0);
  char buf[256];
  // The server may first flush a ticket for the valid admit; the stream
  // must end in a close either way.
  while (true) {
    const auto n = ::recv(fd.get(), buf, sizeof buf, 0);
    if (n <= 0) {
      EXPECT_EQ(n, 0);
      break;
    }
  }
  fd.reset();
  EXPECT_GE(server.counters().protocol_errors, 1u);

  // The server survives and still finishes cleanly.
  BlockingClient control;
  control.connect("127.0.0.1", server.port());
  const server::WireSummary summary = control.finish();
  EXPECT_TRUE(summary.ok);
  control.close();
  server.stop();
}

// stop() without any client finishing must shut down cleanly (the
// destructor path) — including with connections still open.
TEST(NetServer, StopWithoutFinishIsClean) {
  BatchingPolicy policy;
  NetServerConfig net;
  NetServer server(net, core_config(4, 2), policy);
  server.start();
  BlockingClient client;
  client.connect("127.0.0.1", server.port());
  (void)client.admit(0, 0.25);
  client.flush();
  EXPECT_FALSE(server.finished());
  EXPECT_THROW((void)server.summary(), std::logic_error);
  server.stop();  // open connection + posted admit: still clean
}

// Read-pause recovery. A client that stops reading its tickets pushes
// the server past a tiny write watermark, so the server pauses reading
// the connection. Once the client reads again, whichever path empties
// the output buffer — the EPOLLOUT handler or the ticket flush after a
// drain — must resume reading, or the rest of the admissions are never
// decoded and never ticketed. Which path wins is a race, so this run
// cannot force the flush path; it checks that the pause, once taken,
// always ends.
TEST(NetServer, PausedReaderResumesAndGetsEveryTicket) {
  constexpr std::uint64_t kAdmits = 50000;
  constexpr Index kObjects = 8;
  BatchingPolicy policy;
  NetServerConfig net;
  net.reactors = 1;
  net.drain_interval_us = 100;
  net.write_high_watermark = 64;
  NetServer server(net, core_config(kObjects, 1), policy);
  server.start();
  FdHandle fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  ASSERT_TRUE(fd.valid());
  // Small socket buffers, set before connect, so tickets back up into
  // the server's output buffer quickly.
  const int window = 4096;
  ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &window, sizeof window), 0);
  ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &window, sizeof window), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);

  std::thread sender([&] {
    std::vector<std::uint8_t> out;
    for (std::uint64_t k = 0; k < kAdmits; ++k) {
      append_admit(out, k + 1, static_cast<std::int64_t>(k % kObjects),
                   static_cast<double>(k) * 1e-4);
    }
    std::size_t at = 0;
    while (at < out.size()) {
      const auto n = ::send(fd.get(), out.data() + at,
                            std::min<std::size_t>(out.size() - at, 1024), MSG_NOSIGNAL);
      if (n <= 0) return;  // the reader gave up and shut the socket down
      at += static_cast<std::size_t>(n);
    }
  });

  FrameDecoder decoder;
  std::uint64_t tickets = 0;
  std::uint8_t buf[1 << 16];
  // Stop reading long enough for the tickets to back up past the
  // watermark, then read everything.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  while (tickets < kAdmits) {
    pollfd p{fd.get(), POLLIN, 0};
    if (::poll(&p, 1, 5000) <= 0) break;  // no ticket for 5 s: stalled
    const auto n = ::recv(fd.get(), buf, sizeof buf, 0);
    if (n <= 0) break;
    decoder.feed({buf, static_cast<std::size_t>(n)});
    Frame frame;
    while (decoder.next_frame(frame)) {
      if (frame.type == RecordType::kTicket) ++tickets;
    }
  }
  EXPECT_EQ(tickets, kAdmits);
  ::shutdown(fd.get(), SHUT_RDWR);
  sender.join();
  fd.reset();
  server.stop();
}

TEST(NetServer, ConfigValidation) {
  BatchingPolicy policy;
  {
    NetServerConfig net;
    net.reactors = 0;
    EXPECT_THROW(NetServer(net, core_config(2, 1), policy),
                 std::invalid_argument);
  }
  {
    NetServerConfig net;
    net.drain_interval_us = 0;
    EXPECT_THROW(NetServer(net, core_config(2, 1), policy),
                 std::invalid_argument);
  }
  {
    NetServerConfig net;
    auto config = core_config(2, 1);
    config.enable_sessions = true;
    EXPECT_THROW(NetServer(net, config, policy), std::invalid_argument);
  }
}

}  // namespace
}  // namespace smerge::net
