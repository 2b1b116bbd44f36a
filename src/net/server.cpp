#include "net/server.h"

#include <sys/epoll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "util/json_writer.h"
#include "util/snapshot.h"

namespace smerge::net {

namespace {

constexpr std::uint32_t kBaseInterest = EPOLLET | EPOLLRDHUP;
constexpr std::size_t kMaxHttpRequest = std::size_t{16} << 10;
constexpr int kFinishAttempts = 10;

void json_live_fields(util::JsonWriter& w, const server::LiveStats& live) {
  w.key("arrivals").value(live.arrivals);
  w.key("admitted").value(live.admitted);
  w.key("rejected").value(live.rejected);
  w.key("deferrals").value(live.deferrals);
  w.key("degraded").value(live.degraded);
  w.key("streams").value(live.streams);
  w.key("cost").value(live.cost);
  w.key("current_channels").value(live.current_channels);
  w.key("peak_channels").value(live.peak_channels);
  w.key("wait_mean").value(live.wait.mean);
  w.key("wait_p50").value(live.wait.p50);
  w.key("wait_p95").value(live.wait.p95);
  w.key("wait_p99").value(live.wait.p99);
  w.key("wait_max").value(live.wait.max);
}

}  // namespace

struct NetServer::Reactor {
  unsigned index = 0;
  Epoll epoll;
  EventFd wake;
  std::mutex inbox_mutex;
  std::vector<FdHandle> inbox;  ///< accepted fds awaiting adoption
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  std::atomic<std::uint64_t> pending_count{0};  ///< tickets awaiting a drain
  std::vector<ReadyEvent> ready;
  std::thread thread;
};

NetServer::NetServer(const NetServerConfig& net_config,
                     const server::ServerCoreConfig& core_config,
                     OnlinePolicy& policy)
    : net_config_(net_config), policy_(policy), core_(core_config, policy) {
  if (core_config.serve != server::ServeMode::kPolicy ||
      core_config.enable_sessions) {
    throw std::invalid_argument(
        "NetServer: the wire feeds post(), which requires generic-policy, "
        "non-session serving");
  }
  if (net_config_.reactors < 1) {
    throw std::invalid_argument("NetServer: reactors must be >= 1");
  }
  if (net_config_.drain_interval_us < 1) {
    throw std::invalid_argument("NetServer: drain_interval_us must be >= 1");
  }
  if (net_config_.read_chunk < kHeaderSize) {
    throw std::invalid_argument("NetServer: read_chunk too small");
  }
}

NetServer::~NetServer() { stop(); }

void NetServer::start() {
  if (running_.load(std::memory_order_acquire)) return;
  listener_ = make_listener(net_config_.host, net_config_.port,
                            net_config_.listen_backlog);
  port_ = local_port(listener_.get());
  running_.store(true, std::memory_order_release);
  reactors_.clear();
  reactors_.reserve(net_config_.reactors);
  for (unsigned i = 0; i < net_config_.reactors; ++i) {
    auto r = std::make_unique<Reactor>();
    r->index = i;
    r->epoll.add(r->wake.fd(), EPOLLIN);
    reactors_.push_back(std::move(r));
  }
  for (auto& r : reactors_) {
    Reactor* raw = r.get();
    r->thread = std::thread([this, raw] { reactor_loop(*raw); });
  }
  driver_ = std::thread([this] { driver_loop(); });
}

void NetServer::stop() {
  const bool was_running = running_.exchange(false, std::memory_order_acq_rel);
  if (was_running) {
    driver_wake_.notify();
    for (auto& r : reactors_) r->wake.notify();
  }
  if (driver_.joinable()) driver_.join();
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
  reactors_.clear();  // closes every adopted connection
  listener_.reset();
}

bool NetServer::wait_finished(std::chrono::milliseconds timeout) {
  std::unique_lock lock(state_mutex_);
  return finished_cv_.wait_for(lock, timeout, [this] {
    return finished_.load(std::memory_order_acquire) &&
           finish_flushed_.load(std::memory_order_acquire);
  });
}

const server::WireSummary& NetServer::summary() const {
  if (!finished()) {
    throw std::logic_error("NetServer::summary: no FINISH served yet");
  }
  return summary_;
}

const server::Snapshot& NetServer::snapshot() const {
  if (!finished()) {
    throw std::logic_error("NetServer::snapshot: no FINISH served yet");
  }
  return snapshot_;
}

std::string NetServer::error() const {
  std::lock_guard lock(state_mutex_);
  return error_;
}

server::LiveStats NetServer::live() const {
  std::lock_guard lock(state_mutex_);
  return cached_live_;
}

NetCounters NetServer::counters() const {
  NetCounters c;
  c.accepted = n_accepted_.load(std::memory_order_relaxed);
  c.closed = n_closed_.load(std::memory_order_relaxed);
  c.protocol_errors = n_proto_errors_.load(std::memory_order_relaxed);
  c.http_requests = n_http_.load(std::memory_order_relaxed);
  c.admits = n_admits_.load(std::memory_order_relaxed);
  c.tickets = n_tickets_.load(std::memory_order_relaxed);
  c.drains = n_drains_.load(std::memory_order_relaxed);
  c.bytes_in = n_bytes_in_.load(std::memory_order_relaxed);
  c.bytes_out = n_bytes_out_.load(std::memory_order_relaxed);
  return c;
}

// --- Driver thread ----------------------------------------------------------

void NetServer::driver_loop() {
  Epoll epoll;
  TimerFd timer(net_config_.drain_interval_us);
  epoll.add(listener_.get(), EPOLLIN);
  epoll.add(timer.fd(), EPOLLIN);
  epoll.add(driver_wake_.fd(), EPOLLIN);
  std::vector<ReadyEvent> ready;
  while (running_.load(std::memory_order_acquire)) {
    epoll.wait(ready, -1);
    if (!running_.load(std::memory_order_acquire)) break;
    for (const ReadyEvent& ev : ready) {
      if (ev.fd == listener_.get()) {
        accept_ready();
      } else if (ev.fd == timer.fd()) {
        timer.read_ticks();
        run_drain();
      } else if (ev.fd == driver_wake_.fd()) {
        driver_wake_.clear();
        if (finish_requested_.load(std::memory_order_acquire) && !finished()) {
          run_finish();
        }
      }
    }
  }
}

void NetServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listener_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient accept failure: try again next edge
    }
    FdHandle handle(fd);
    try {
      set_nodelay(fd);
    } catch (const std::system_error&) {
      continue;  // handle closes the socket
    }
    Reactor& r = *reactors_[next_reactor_++ % reactors_.size()];
    {
      std::lock_guard lock(r.inbox_mutex);
      r.inbox.push_back(std::move(handle));
    }
    r.wake.notify();
    n_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void NetServer::run_drain() {
  if (finished()) return;
  try {
    core_.drain();
  } catch (const std::exception& e) {
    // A peer violated the per-object contract (e.g. two connections
    // interleaving one object out of order). Fail the run, keep serving
    // the error over the stats surface instead of crashing the process.
    {
      std::lock_guard lock(state_mutex_);
      error_ = e.what();
      summary_ = {};
      summary_.ok = false;
      finished_.store(true, std::memory_order_release);
    }
    finished_cv_.notify_all();
    for (auto& r : reactors_) r->wake.notify();
    return;
  }
  completed_drains_.fetch_add(1, std::memory_order_release);
  n_drains_.fetch_add(1, std::memory_order_relaxed);
  {
    server::LiveStats live = core_.live_stats();
    std::lock_guard lock(state_mutex_);
    cached_live_ = live;
  }
  for (auto& r : reactors_) {
    if (r->pending_count.load(std::memory_order_relaxed) > 0) {
      r->wake.notify();
    }
  }
  if (finish_requested_.load(std::memory_order_acquire) && !finished()) {
    run_finish();
  }
}

void NetServer::run_finish() {
  std::string failure;
  bool ok = false;
  // finish() drains, then refuses if an in-flight post is still in a
  // ring. The FINISH contract says producers have quiesced, so a couple
  // of retry rounds absorb the last packets' worth of in-flight posts.
  for (int attempt = 0; attempt < kFinishAttempts; ++attempt) {
    try {
      core_.finish();
      ok = true;
      break;
    } catch (const std::exception& e) {
      failure = e.what();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  {
    std::lock_guard lock(state_mutex_);
    if (ok) {
      try {
        snapshot_ = core_.take_snapshot();
        summary_ = server::summarize(snapshot_);
        cached_live_ = core_.live_stats();
      } catch (const std::exception& e) {
        ok = false;
        failure = e.what();
      }
    }
    if (!ok) {
      error_ = failure;
      summary_ = {};
      summary_.ok = false;
    }
    finished_.store(true, std::memory_order_release);
  }
  finished_cv_.notify_all();
  for (auto& r : reactors_) r->wake.notify();
}

// --- Reactor threads --------------------------------------------------------

void NetServer::reactor_loop(Reactor& r) {
  while (running_.load(std::memory_order_acquire)) {
    r.epoll.wait(r.ready, -1);
    if (!running_.load(std::memory_order_acquire)) break;
    for (const ReadyEvent& ev : r.ready) {
      if (ev.fd == r.wake.fd()) {
        r.wake.clear();
        adopt_inbox(r);
      } else {
        handle_conn_event(r, ev.fd, ev.events);
      }
    }
    flush_tickets(r);
  }
}

void NetServer::adopt_inbox(Reactor& r) {
  std::vector<FdHandle> adopted;
  {
    std::lock_guard lock(r.inbox_mutex);
    adopted.swap(r.inbox);
  }
  for (FdHandle& handle : adopted) {
    const int fd = handle.get();
    auto conn = std::make_unique<Connection>(std::move(handle),
                                             net_config_.write_high_watermark);
    conn->interest = kBaseInterest | EPOLLIN;
    r.epoll.add(fd, conn->interest);
    r.conns.emplace(fd, std::move(conn));
  }
}

void NetServer::update_write_interest(Reactor& r, Connection& c) {
  std::uint32_t want = kBaseInterest;
  if (!c.read_paused) want |= EPOLLIN;
  if (c.want_write()) want |= EPOLLOUT;
  if (want != c.interest) {
    c.interest = want;
    r.epoll.modify(c.fd(), want);
  }
}

void NetServer::close_conn(Reactor& r, int fd) {
  auto it = r.conns.find(fd);
  if (it == r.conns.end()) return;
  Connection& c = *it->second;
  r.pending_count.fetch_sub(c.pending.size(), std::memory_order_relaxed);
  const bool was_finish_conn =
      finish_fd_.load(std::memory_order_relaxed) == fd &&
      finish_reactor_.load(std::memory_order_relaxed) ==
          static_cast<int>(r.index);
  try {
    r.epoll.remove(fd);
  } catch (const std::system_error&) {
    // Already gone (peer reset) — the erase below still closes our end.
  }
  r.conns.erase(it);
  n_closed_.fetch_add(1, std::memory_order_relaxed);
  if (was_finish_conn && !finish_flushed_.load(std::memory_order_relaxed)) {
    // The finisher died before reading its reply; don't wedge
    // wait_finished() on a reply no one will read.
    {
      std::lock_guard lock(state_mutex_);
      finish_flushed_.store(true, std::memory_order_release);
    }
    finished_cv_.notify_all();
  }
}

void NetServer::handle_conn_event(Reactor& r, int fd, std::uint32_t events) {
  auto it = r.conns.find(fd);
  if (it == r.conns.end()) return;
  Connection& c = *it->second;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    close_conn(r, fd);
    return;
  }
  bool resumed_read = false;
  if ((events & EPOLLOUT) != 0) {
    std::uint64_t sent = 0;
    const auto res = c.flush(sent);
    n_bytes_out_.fetch_add(sent, std::memory_order_relaxed);
    if (res == Connection::IoResult::kClosed) {
      close_conn(r, fd);
      return;
    }
    if (c.finish_sent && !c.want_write() &&
        !finish_flushed_.load(std::memory_order_relaxed)) {
      {
        std::lock_guard lock(state_mutex_);
        finish_flushed_.store(true, std::memory_order_release);
      }
      finished_cv_.notify_all();
    }
    if (c.closing && !c.want_write()) {
      close_conn(r, fd);
      return;
    }
    resumed_read = c.resume_reads();
    update_write_interest(r, c);
  }
  if ((events & (EPOLLIN | EPOLLRDHUP)) != 0 || resumed_read) {
    std::uint64_t got = 0;
    const auto res = c.fill_from_socket(net_config_.read_chunk, got);
    n_bytes_in_.fetch_add(got, std::memory_order_relaxed);
    process_input(r, c);
    // process_input may have closed the connection on a protocol error.
    if (r.conns.find(fd) == r.conns.end()) return;
    if (res == Connection::IoResult::kClosed) {
      close_conn(r, fd);
      return;
    }
    update_write_interest(r, c);
  }
}

void NetServer::process_input(Reactor& r, Connection& c) {
  FrameDecoder& dec = c.decoder();
  if (!c.sniffed && dec.buffered() > 0) {
    c.sniffed = true;
    // The binary magic begins with 'S'; anything else is the plain-text
    // debug surface (GET /stats, ...).
    c.http = dec.peek().front() != 0x53;
  }
  if (c.http) {
    handle_http(r, c);
    return;
  }
  std::uint64_t admits = 0;
  try {
    Frame frame;
    while (dec.next_frame(frame)) {
      if (frame.type == RecordType::kAdmit) ++admits;
      handle_frame(r, c, frame);
    }
  } catch (const ProtocolError&) {
    n_proto_errors_.fetch_add(1, std::memory_order_relaxed);
    if (admits > 0) n_admits_.fetch_add(admits, std::memory_order_relaxed);
    close_conn(r, c.fd());
    return;
  }
  if (admits > 0) n_admits_.fetch_add(admits, std::memory_order_relaxed);
  if (c.over_watermark() && !c.read_paused) {
    c.read_paused = true;
    update_write_interest(r, c);
  }
}

void NetServer::handle_frame(Reactor& r, Connection& c, const Frame& frame) {
  switch (frame.type) {
    case RecordType::kAdmit: {
      const AdmitRecord admit = parse_admit(frame.payload);
      if (admit.object < 0 || admit.object >= core_.config().objects) {
        throw ProtocolError("net: ADMIT object out of range");
      }
      if (!(admit.time >= 0.0)) {
        throw ProtocolError("net: ADMIT time must be nonnegative");
      }
      // The wire contract: one connection's ADMIT times are
      // nondecreasing (which implies the core's per-object contract as
      // long as an object stays on one connection at a time). Checking
      // here keeps a buggy client from poisoning the drain.
      if (admit.time < c.last_admit_time) {
        throw ProtocolError("net: ADMIT times must be nondecreasing");
      }
      if (finish_requested_.load(std::memory_order_acquire)) {
        throw ProtocolError("net: ADMIT after FINISH");
      }
      c.last_admit_time = admit.time;
      const std::uint64_t epoch =
          completed_drains_.load(std::memory_order_acquire);
      core_.post(admit.object, admit.time);
      c.pending.push_back({admit.request_id, admit.object, admit.time, epoch});
      r.pending_count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    case RecordType::kPing:
      append_u64_frame(c.out(), RecordType::kPong, parse_u64(frame.payload));
      return;
    case RecordType::kStatsRequest: {
      server::LiveStats live;
      {
        std::lock_guard lock(state_mutex_);
        live = cached_live_;
      }
      util::SnapshotWriter w;
      server::write_live_stats(w, live);
      append_frame(c.out(), RecordType::kStats, w.payload());
      return;
    }
    case RecordType::kFinish: {
      finish_reactor_.store(static_cast<int>(r.index),
                            std::memory_order_relaxed);
      finish_fd_.store(c.fd(), std::memory_order_relaxed);
      finish_requested_.store(true, std::memory_order_release);
      driver_wake_.notify();
      return;
    }
    case RecordType::kTicket:
    case RecordType::kStats:
    case RecordType::kPong:
    case RecordType::kFinished:
      throw ProtocolError("net: server-only record type from a client");
  }
  throw ProtocolError("net: unknown record type");
}

void NetServer::flush_tickets(Reactor& r) {
  const std::uint64_t completed =
      completed_drains_.load(std::memory_order_acquire);
  const bool fin = finished_.load(std::memory_order_acquire);
  util::SnapshotWriter w;
  for (auto it = r.conns.begin(); it != r.conns.end();) {
    Connection& c = *(it++)->second;  // close_conn below invalidates `it`-1
    if (c.http) continue;
    std::size_t ready = 0;
    while (ready < c.pending.size() &&
           (fin || c.pending[ready].epoch < completed)) {
      ++ready;
    }
    bool wrote = false;
    if (ready > 0) {
      for (std::size_t i = 0; i < ready; ++i) {
        const PendingAdmit& p = c.pending[i];
        const std::size_t base = w.size();
        w.u64(p.request_id);
        server::write_ticket(w, core_.preview_admission(p.object, p.time));
        append_frame(c.out(), RecordType::kTicket,
                     w.payload().subspan(base));
      }
      c.pending.erase(c.pending.begin(),
                      c.pending.begin() + static_cast<std::ptrdiff_t>(ready));
      r.pending_count.fetch_sub(ready, std::memory_order_relaxed);
      n_tickets_.fetch_add(ready, std::memory_order_relaxed);
      wrote = true;
    }
    const bool is_finish_conn =
        fin && !c.finish_sent && c.pending.empty() &&
        finish_fd_.load(std::memory_order_relaxed) == c.fd() &&
        finish_reactor_.load(std::memory_order_relaxed) ==
            static_cast<int>(r.index);
    if (is_finish_conn) {
      server::WireSummary summary;
      {
        std::lock_guard lock(state_mutex_);
        summary = summary_;
      }
      const std::size_t base = w.size();
      server::write_summary(w, summary);
      append_frame(c.out(), RecordType::kFinished, w.payload().subspan(base));
      c.finish_sent = true;
      wrote = true;
    }
    if (!wrote) continue;
    std::uint64_t sent = 0;
    if (c.flush(sent) == Connection::IoResult::kClosed) {
      n_bytes_out_.fetch_add(sent, std::memory_order_relaxed);
      close_conn(r, c.fd());
      continue;
    }
    n_bytes_out_.fetch_add(sent, std::memory_order_relaxed);
    if (c.finish_sent && !c.want_write() &&
        !finish_flushed_.load(std::memory_order_relaxed)) {
      {
        std::lock_guard lock(state_mutex_);
        finish_flushed_.store(true, std::memory_order_release);
      }
      finished_cv_.notify_all();
    }
    // This flush may have drained the buffer itself, in which case no
    // EPOLLOUT follows to lift a read pause. Re-adding EPOLLIN with
    // bytes already buffered makes epoll report them (EPOLL_CTL_MOD
    // re-checks readiness), so the next wait reads them.
    c.resume_reads();
    update_write_interest(r, c);
  }
}

// --- HTTP debug surface -----------------------------------------------------

void NetServer::handle_http(Reactor& r, Connection& c) {
  FrameDecoder& dec = c.decoder();
  const auto bytes = dec.peek();
  c.http_request.append(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size());
  dec.consume(bytes.size());
  if (c.closing) return;  // response already staged; ignore extra bytes
  if (c.http_request.find("\r\n\r\n") == std::string::npos) {
    if (c.http_request.size() > kMaxHttpRequest) close_conn(r, c.fd());
    return;
  }
  n_http_.fetch_add(1, std::memory_order_relaxed);
  std::string status = "200 OK";
  std::string body;
  const auto line_end = c.http_request.find("\r\n");
  const std::string line = c.http_request.substr(0, line_end);
  const auto sp1 = line.find(' ');
  const auto sp2 = line.find(' ', sp1 + 1);
  const std::string method = sp1 == std::string::npos ? "" : line.substr(0, sp1);
  const std::string path = sp1 == std::string::npos || sp2 == std::string::npos
                               ? ""
                               : line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    status = "405 Method Not Allowed";
    body = "{\n  \"error\": \"only GET is supported\"\n}";
  } else if (path == "/stats" || path == "/live" || path == "/dispatch") {
    body = http_body(path);
  } else {
    status = "404 Not Found";
    body = "{\n  \"error\": \"unknown path; try /stats, /live, /dispatch\"\n}";
  }
  std::string response = "HTTP/1.1 " + status +
                         "\r\nContent-Type: application/json\r\n"
                         "Content-Length: " +
                         std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" +
                         body;
  auto& out = c.out();
  out.insert(out.end(), response.begin(), response.end());
  c.closing = true;
  std::uint64_t sent = 0;
  const auto res = c.flush(sent);
  n_bytes_out_.fetch_add(sent, std::memory_order_relaxed);
  if (res == Connection::IoResult::kClosed ||
      (c.closing && !c.want_write())) {
    close_conn(r, c.fd());
    return;
  }
  update_write_interest(r, c);
}

std::string NetServer::http_body(const std::string& path) {
  util::JsonWriter w;
  w.begin_object();
  if (path == "/live") {
    server::LiveStats live;
    {
      std::lock_guard lock(state_mutex_);
      live = cached_live_;
    }
    json_live_fields(w, live);
  } else if (path == "/stats") {
    server::LiveStats live;
    {
      std::lock_guard lock(state_mutex_);
      live = cached_live_;
    }
    const NetCounters nc = counters();
    w.key("live").begin_object();
    json_live_fields(w, live);
    w.end_object();
    w.key("net").begin_object();
    w.key("accepted").value(nc.accepted);
    w.key("closed").value(nc.closed);
    w.key("protocol_errors").value(nc.protocol_errors);
    w.key("http_requests").value(nc.http_requests);
    w.key("admits").value(nc.admits);
    w.key("tickets").value(nc.tickets);
    w.key("drains").value(nc.drains);
    w.key("bytes_in").value(nc.bytes_in);
    w.key("bytes_out").value(nc.bytes_out);
    w.end_object();
    w.key("finished").value(finished());
  } else {  // /dispatch
    const server::ServerCoreConfig& cfg = core_.config();
    w.key("policy").value(policy_.name());
    w.key("objects").value(cfg.objects);
    w.key("delay").value(cfg.delay);
    w.key("horizon").value(cfg.horizon);
    w.key("shards").value(cfg.shards);
    w.key("reactors").value(net_config_.reactors);
    w.key("drain_interval_us").value(net_config_.drain_interval_us);
  }
  w.end_object();
  return w.str();
}

}  // namespace smerge::net
