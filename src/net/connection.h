// Per-connection buffered transport state for the admission front end:
// an incremental frame decoder on the read side, a partial-write-safe
// output buffer on the write side, and the backpressure bookkeeping
// that ties them together (an output buffer past its high watermark
// pauses reads until the peer drains it — the server never buffers
// unboundedly for a slow client).
#ifndef SMERGE_NET_CONNECTION_H
#define SMERGE_NET_CONNECTION_H

#include <cstdint>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/protocol.h"

namespace smerge::net {

/// An ADMIT posted to the core but whose TICKET is not yet certain to
/// be covered by a completed drain. `epoch` is the drain counter
/// observed *before* the post; the ticket flushes once a strictly later
/// drain completes.
struct PendingAdmit {
  std::uint64_t request_id = 0;
  std::int64_t object = 0;
  double time = 0.0;
  std::uint64_t epoch = 0;
};

class Connection {
 public:
  Connection(FdHandle fd, std::size_t write_high_watermark)
      : fd_(std::move(fd)), high_watermark_(write_high_watermark) {}

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }

  enum class IoResult : std::uint8_t {
    kOk,      ///< progressed (possibly zero bytes, EAGAIN)
    kClosed,  ///< peer closed or hard socket error — drop the connection
  };

  /// Edge-triggered read: pulls everything available (until EAGAIN)
  /// into the decoder in `chunk`-sized reads. Honors `read_paused`.
  IoResult fill_from_socket(std::size_t chunk, std::uint64_t& bytes_in);

  /// Writes as much buffered output as the socket accepts right now
  /// (MSG_NOSIGNAL; partial writes leave a cursor).
  IoResult flush(std::uint64_t& bytes_out);

  /// Frame staging area — append with net::append_frame and call
  /// flush() when done.
  [[nodiscard]] std::vector<std::uint8_t>& out() noexcept { return out_; }
  [[nodiscard]] FrameDecoder& decoder() noexcept { return decoder_; }

  /// Unsent output remains (EPOLLOUT interest).
  [[nodiscard]] bool want_write() const noexcept {
    return out_pos_ < out_.size();
  }
  /// Output buffer beyond the high watermark — pause reads.
  [[nodiscard]] bool over_watermark() const noexcept {
    return out_.size() - out_pos_ > high_watermark_;
  }
  /// Lifts `read_paused` once the output is back under the watermark;
  /// true when it did. Every path that flushes calls this before
  /// re-registering interest, so whichever one drains the buffer also
  /// re-arms EPOLLIN.
  bool resume_reads() noexcept {
    if (!read_paused || over_watermark()) return false;
    read_paused = false;
    return true;
  }

  // Transport-visible state the owning reactor drives.
  bool read_paused = false;   ///< over watermark: EPOLLIN dropped
  bool sniffed = false;       ///< first bytes classified (binary vs HTTP)
  bool http = false;          ///< plain-text debug request
  bool closing = false;       ///< flush remaining output, then close
  bool finish_sent = false;   ///< FINISHED reply staged on this conn
  std::uint32_t interest = 0;         ///< epoll events currently registered
  double last_admit_time = 0.0;       ///< wire contract: nondecreasing
  std::string http_request;           ///< accumulated HTTP header bytes
  std::vector<PendingAdmit> pending;  ///< tickets awaiting a drain epoch

 private:
  FdHandle fd_;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> out_;
  std::size_t out_pos_ = 0;
  std::size_t high_watermark_;
};

}  // namespace smerge::net

#endif  // SMERGE_NET_CONNECTION_H
