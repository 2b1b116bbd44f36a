#include "net/client.h"

#include <sys/socket.h>

#include <cerrno>
#include <stdexcept>

#include "util/snapshot.h"

namespace smerge::net {

void BlockingClient::connect(const std::string& host, std::uint16_t port) {
  close();
  fd_ = connect_tcp(host, port);
  decoder_ = FrameDecoder();
  out_.clear();
}

void BlockingClient::close() {
  fd_.reset();
  out_.clear();
}

std::uint64_t BlockingClient::admit(std::int64_t object, double time) {
  const std::uint64_t id = next_request_id_++;
  append_admit(out_, id, object, time);
  if (out_.size() >= autoflush_bytes_) flush();
  return id;
}

void BlockingClient::flush() {
  std::size_t pos = 0;
  while (pos < out_.size()) {
    const auto n = ::send(fd_.get(), out_.data() + pos, out_.size() - pos,
                          MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    pos += static_cast<std::size_t>(n);
  }
  out_.clear();
}

void BlockingClient::read_some() {
  auto span = decoder_.writable(std::size_t{64} << 10);
  const auto n = ::recv(fd_.get(), span.data(), span.size(), 0);
  if (n > 0) {
    decoder_.commit(static_cast<std::size_t>(n));
    return;
  }
  decoder_.commit(0);
  if (n == 0) throw std::runtime_error("net client: server closed the stream");
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
  throw_errno("recv");
}

bool BlockingClient::next_frame(Frame& frame) { return decoder_.next_frame(frame); }

std::size_t BlockingClient::poll_tickets(
    const std::function<void(const TicketReply&)>& on_ticket) {
  std::size_t tickets = 0;
  std::size_t frames = 0;
  const auto drain_frames = [&] {
    Frame frame;
    while (next_frame(frame)) {
      ++frames;
      switch (frame.type) {
        case RecordType::kTicket: {
          util::SnapshotReader reader(frame.payload);
          TicketReply reply;
          reply.request_id = reader.u64();
          reply.ticket = server::read_ticket(reader);
          reader.expect_end();
          ++tickets;
          if (on_ticket) on_ticket(reply);
          break;
        }
        case RecordType::kPong:
          pongs_.push_back(parse_u64(frame.payload));
          break;
        case RecordType::kStats: {
          util::SnapshotReader reader(frame.payload);
          stats_replies_.push_back(server::read_live_stats(reader));
          reader.expect_end();
          break;
        }
        case RecordType::kFinished: {
          util::SnapshotReader reader(frame.payload);
          finished_replies_.push_back(server::read_summary(reader));
          reader.expect_end();
          break;
        }
        default:
          throw ProtocolError("net client: unexpected record type");
      }
    }
  };
  drain_frames();
  // Return as soon as at least one frame of any type was processed —
  // the round-trip helpers (ping/stats/finish) loop on their own reply
  // queues.
  while (frames == 0) {
    read_some();
    drain_frames();
  }
  return tickets;
}

std::uint64_t BlockingClient::ping(std::uint64_t nonce) {
  flush();
  append_u64_frame(out_, RecordType::kPing, nonce);
  flush();
  while (pongs_.empty()) poll_tickets(nullptr);
  const std::uint64_t got = pongs_.front();
  pongs_.erase(pongs_.begin());
  return got;
}

server::LiveStats BlockingClient::stats() {
  flush();
  append_frame(out_, RecordType::kStatsRequest, {});
  flush();
  while (stats_replies_.empty()) poll_tickets(nullptr);
  server::LiveStats s = stats_replies_.front();
  stats_replies_.erase(stats_replies_.begin());
  return s;
}

server::WireSummary BlockingClient::finish() {
  flush();
  append_frame(out_, RecordType::kFinish, {});
  flush();
  while (finished_replies_.empty()) poll_tickets(nullptr);
  server::WireSummary s = finished_replies_.front();
  finished_replies_.erase(finished_replies_.begin());
  return s;
}

}  // namespace smerge::net
