// Blocking admission-protocol client — the send side of vod_loadgen,
// the loopback bench and the end-to-end tests. One instance per thread;
// ADMIT records batch into a local buffer and go out in one write, so a
// client thread can sustain wire rates without a syscall per admission.
#ifndef SMERGE_NET_CLIENT_H
#define SMERGE_NET_CLIENT_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/protocol.h"
#include "server/wire.h"

namespace smerge::net {

/// A TICKET as received: the request it answers plus the decoded fields.
struct TicketReply {
  std::uint64_t request_id = 0;
  server::Ticket ticket;
};

class BlockingClient {
 public:
  BlockingClient() = default;
  ~BlockingClient() = default;
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  /// Connects (with retries — absorbs the server-startup race). Throws
  /// std::system_error when the server never comes up.
  void connect(const std::string& host, std::uint16_t port);
  void close();
  [[nodiscard]] bool connected() const noexcept { return fd_.valid(); }

  /// Stages an ADMIT (buffered; nothing hits the socket until flush()
  /// or the buffer passes `autoflush_bytes`). Returns the request id.
  std::uint64_t admit(std::int64_t object, double time);

  /// Writes the staged batch fully (blocking).
  void flush();

  /// Decodes replies, blocking until at least one frame has arrived.
  /// Every TICKET invokes `on_ticket`; PONG/STATS/FINISHED frames are
  /// queued for their dedicated calls. Returns the number of tickets
  /// seen. Throws ProtocolError on a malformed stream and
  /// std::runtime_error when the server closes mid-read.
  std::size_t poll_tickets(const std::function<void(const TicketReply&)>& on_ticket);

  /// PING round-trip; returns the echoed nonce (must equal `nonce`).
  std::uint64_t ping(std::uint64_t nonce);

  /// STATS round-trip: the server's LiveStats as of its latest drain.
  server::LiveStats stats();

  /// FINISH handshake: sends FINISH (after flushing any staged admits)
  /// and blocks until FINISHED. All tickets must have been collected
  /// first (the protocol contract: FINISH certifies quiesced producers).
  server::WireSummary finish();

  /// Tune the admit autoflush threshold (bytes; default 60 KiB).
  void set_autoflush(std::size_t bytes) noexcept { autoflush_bytes_ = bytes; }

 private:
  void read_some();
  bool next_frame(Frame& frame);

  FdHandle fd_;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> out_;
  std::uint64_t next_request_id_ = 1;
  std::size_t autoflush_bytes_ = std::size_t{60} << 10;

  // Non-ticket replies parked until their round-trip call collects them.
  std::vector<std::uint64_t> pongs_;
  std::vector<server::LiveStats> stats_replies_;
  std::vector<server::WireSummary> finished_replies_;
};

}  // namespace smerge::net

#endif  // SMERGE_NET_CLIENT_H
