// Admission wire protocol (src/net/protocol.h): framing round-trips,
// incremental decoding over every torn-prefix byte boundary (the
// non-blocking socket reality — frames arrive split anywhere, mirroring
// the torn-tail coverage of test_recovery.cpp), and loud rejection of
// every malformed-header class: bad magic, unknown version or type,
// nonzero reserved bits, oversized payload, checksum mismatch. Also the
// typed payload codecs shared with the crash-consistency substrate
// (server/wire.h): Ticket, LiveStats and WireSummary must round-trip
// bit-exactly.
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "net/protocol.h"
#include "server/wire.h"
#include "util/snapshot.h"

namespace smerge::net {
namespace {

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (const int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

/// A representative multi-frame stream: one of each client/server type.
std::vector<std::uint8_t> sample_stream() {
  std::vector<std::uint8_t> out;
  append_admit(out, 7, 3, 0.625);
  append_u64_frame(out, RecordType::kPing, 0xDEADBEEFCAFEF00Dull);
  append_frame(out, RecordType::kStatsRequest, {});
  const auto payload = bytes_of({1, 2, 3, 4, 5});
  append_frame(out, RecordType::kTicket, payload);
  append_admit(out, 8, 0, 0.0);
  return out;
}

/// Decodes every buffered frame, returning (type, payload copy) pairs.
std::vector<std::pair<RecordType, std::vector<std::uint8_t>>> drain(
    FrameDecoder& decoder) {
  std::vector<std::pair<RecordType, std::vector<std::uint8_t>>> frames;
  Frame frame;
  while (decoder.next_frame(frame)) {
    frames.emplace_back(frame.type, std::vector<std::uint8_t>(
                                        frame.payload.begin(),
                                        frame.payload.end()));
  }
  return frames;
}

void expect_sample_frames(
    const std::vector<std::pair<RecordType, std::vector<std::uint8_t>>>& got) {
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].first, RecordType::kAdmit);
  const AdmitRecord admit = parse_admit(got[0].second);
  EXPECT_EQ(admit.request_id, 7u);
  EXPECT_EQ(admit.object, 3);
  EXPECT_EQ(admit.time, 0.625);
  EXPECT_EQ(got[1].first, RecordType::kPing);
  EXPECT_EQ(parse_u64(got[1].second), 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(got[2].first, RecordType::kStatsRequest);
  EXPECT_TRUE(got[2].second.empty());
  EXPECT_EQ(got[3].first, RecordType::kTicket);
  EXPECT_EQ(got[3].second, bytes_of({1, 2, 3, 4, 5}));
  EXPECT_EQ(got[4].first, RecordType::kAdmit);
  const AdmitRecord last = parse_admit(got[4].second);
  EXPECT_EQ(last.request_id, 8u);
  EXPECT_EQ(last.object, 0);
  EXPECT_EQ(last.time, 0.0);
}

TEST(NetProtocol, WholeStreamRoundTrip) {
  const auto stream = sample_stream();
  FrameDecoder decoder;
  decoder.feed(stream);
  expect_sample_frames(drain(decoder));
  EXPECT_EQ(decoder.buffered(), 0u);
}

// Frames torn at EVERY two-chunk byte boundary: the decoder must buffer
// any prefix, yield only complete frames, and never duplicate or drop a
// frame once the suffix arrives.
TEST(NetProtocol, TornPrefixEverySplitBoundary) {
  const auto stream = sample_stream();
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder decoder;
    decoder.feed(std::span(stream.data(), split));
    auto frames = drain(decoder);
    decoder.feed(std::span(stream.data() + split, stream.size() - split));
    for (auto& f : drain(decoder)) frames.push_back(std::move(f));
    SCOPED_TRACE("split=" + std::to_string(split));
    expect_sample_frames(frames);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(NetProtocol, ByteAtATimeFeeding) {
  const auto stream = sample_stream();
  FrameDecoder decoder;
  std::vector<std::pair<RecordType, std::vector<std::uint8_t>>> frames;
  for (const std::uint8_t byte : stream) {
    decoder.feed(std::span(&byte, 1));
    for (auto& f : drain(decoder)) frames.push_back(std::move(f));
  }
  expect_sample_frames(frames);
}

// The zero-copy socket path: writable() reserves, commit() publishes
// only what was actually read — including short and zero-byte reads.
TEST(NetProtocol, WritableCommitPartialReads) {
  const auto stream = sample_stream();
  FrameDecoder decoder;
  std::vector<std::pair<RecordType, std::vector<std::uint8_t>>> frames;
  std::size_t at = 0;
  const std::size_t chunks[] = {1, 0, 3, 7, 2, 64, 1024};
  std::size_t pick = 0;
  while (at < stream.size()) {
    const std::size_t want = chunks[pick++ % std::size(chunks)];
    auto span = decoder.writable(want > 0 ? want : 8);
    const std::size_t n =
        std::min({span.size(), want, stream.size() - at});
    std::memcpy(span.data(), stream.data() + at, n);
    decoder.commit(n);
    at += n;
    for (auto& f : drain(decoder)) frames.push_back(std::move(f));
  }
  expect_sample_frames(frames);
}

TEST(NetProtocol, ValidRecordTypes) {
  EXPECT_FALSE(valid_record_type(0));
  for (std::uint8_t t = 1; t <= 8; ++t) EXPECT_TRUE(valid_record_type(t));
  EXPECT_FALSE(valid_record_type(9));
  EXPECT_FALSE(valid_record_type(255));
}

// Each malformed-header class throws ProtocolError, and the decoder is
// poisoned afterwards: even pristine follow-up bytes keep throwing (the
// stream is dead, the owner must close it).
TEST(NetProtocol, MalformedHeadersRejectAndPoison) {
  std::vector<std::uint8_t> good;
  append_admit(good, 1, 0, 1.0);
  struct Corruption {
    const char* name;
    std::size_t offset;
    std::uint8_t value;
  };
  const Corruption corruptions[] = {
      {"magic", 0, 0x54},       // not 'S'
      {"version", 4, 9},        // unknown version
      {"type", 5, 0},           // invalid record type (checksum refreshed? no
                                // — checksum covers it, either check throws)
      {"reserved", 6, 1},       // must-be-zero bits set
      {"checksum", 12, 0xFF},   // valid fields, wrong checksum
  };
  for (const Corruption& c : corruptions) {
    SCOPED_TRACE(c.name);
    auto bad = good;
    bad[c.offset] = c.value;
    FrameDecoder decoder;
    decoder.feed(bad);
    Frame frame;
    EXPECT_THROW((void)decoder.next_frame(frame), ProtocolError);
    EXPECT_THROW(
        {
          decoder.feed(good);
          (void)decoder.next_frame(frame);
        },
        ProtocolError)
        << "decoder must stay poisoned";
  }
}

// An oversized payload length with a *valid* checksum must still be
// rejected — the length guard, not the checksum, is the defense against
// a hostile 4 GB allocation.
TEST(NetProtocol, OversizedPayloadRejected) {
  std::vector<std::uint8_t> header(kHeaderSize, 0);
  header[0] = 0x53;
  header[1] = 0x4D;
  header[2] = 0x4E;
  header[3] = 0x31;
  header[4] = kProtocolVersion;
  header[5] = static_cast<std::uint8_t>(RecordType::kPing);
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxPayload) + 1;
  std::memcpy(header.data() + 8, &huge, 4);
  const std::uint64_t sum = util::fnv1a64(std::span(header.data(), 12));
  const auto low = static_cast<std::uint32_t>(sum);
  std::memcpy(header.data() + 12, &low, 4);
  FrameDecoder decoder;
  decoder.feed(header);
  Frame frame;
  EXPECT_THROW((void)decoder.next_frame(frame), ProtocolError);
}

// A decoder-level payload cap below kMaxPayload (the server could run a
// tighter bound) rejects frames the default would accept.
TEST(NetProtocol, DecoderPayloadCapIsEnforced) {
  const std::vector<std::uint8_t> payload(128, 0xAB);
  std::vector<std::uint8_t> stream;
  append_frame(stream, RecordType::kTicket, payload);
  FrameDecoder tight(64);
  tight.feed(stream);
  Frame frame;
  EXPECT_THROW((void)tight.next_frame(frame), ProtocolError);
  FrameDecoder roomy(256);
  roomy.feed(stream);
  ASSERT_TRUE(roomy.next_frame(frame));
  EXPECT_EQ(frame.payload.size(), 128u);
}

TEST(NetProtocol, PayloadSizeMismatchThrows) {
  EXPECT_THROW((void)parse_admit(std::vector<std::uint8_t>(23)), ProtocolError);
  EXPECT_THROW((void)parse_admit(std::vector<std::uint8_t>(25)), ProtocolError);
  EXPECT_THROW((void)parse_u64(std::vector<std::uint8_t>(7)), ProtocolError);
  EXPECT_THROW((void)parse_u64(std::vector<std::uint8_t>(9)), ProtocolError);
}

TEST(NetProtocol, PeekConsumeBypassFraming) {
  FrameDecoder decoder;
  const auto text = bytes_of({'G', 'E', 'T', ' ', '/'});
  decoder.feed(text);
  const auto seen = decoder.peek();
  ASSERT_EQ(seen.size(), text.size());
  EXPECT_EQ(seen[0], 'G');
  decoder.consume(3);
  EXPECT_EQ(decoder.buffered(), 2u);
  decoder.consume(100);  // over-consume clamps
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(NetWire, TicketRoundTripsBitExactly) {
  server::Ticket t;
  t.admitted = true;
  t.object = 41;
  t.slot = 17;
  t.arrival = 1.0625;
  t.decision_time = 1.125;
  t.playback_start = 1.25;
  t.wait = 0.1875;
  t.guarantee_wait = 0.125;
  t.deferred_slots = 3;
  t.degraded = true;
  util::SnapshotWriter w;
  server::write_ticket(w, t);
  // bool + 2 x i64 + 5 x f64 + i64 + bool: the TICKET payload after the
  // request id.
  EXPECT_EQ(w.size(), 66u);
  util::SnapshotReader r(w.payload());
  const server::Ticket got = server::read_ticket(r);
  r.expect_end();
  EXPECT_EQ(got.admitted, t.admitted);
  EXPECT_EQ(got.object, t.object);
  EXPECT_EQ(got.slot, t.slot);
  EXPECT_EQ(got.arrival, t.arrival);
  EXPECT_EQ(got.decision_time, t.decision_time);
  EXPECT_EQ(got.playback_start, t.playback_start);
  EXPECT_EQ(got.wait, t.wait);
  EXPECT_EQ(got.guarantee_wait, t.guarantee_wait);
  EXPECT_EQ(got.deferred_slots, t.deferred_slots);
  EXPECT_EQ(got.degraded, t.degraded);
}

// The generic-policy sentinel ticket (fields -1.0: "decided at the next
// drain") must survive the wire unchanged — clients branch on it.
TEST(NetWire, SentinelTicketRoundTrips) {
  server::Ticket t;
  t.admitted = true;
  t.object = 2;
  t.arrival = 0.5;
  t.decision_time = 0.5;
  t.playback_start = -1.0;
  t.wait = -1.0;
  t.guarantee_wait = -1.0;
  util::SnapshotWriter w;
  server::write_ticket(w, t);
  util::SnapshotReader r(w.payload());
  const server::Ticket got = server::read_ticket(r);
  r.expect_end();
  EXPECT_EQ(got.playback_start, -1.0);
  EXPECT_EQ(got.wait, -1.0);
  EXPECT_EQ(got.guarantee_wait, -1.0);
  EXPECT_EQ(got.slot, -1);
}

TEST(NetWire, LiveStatsRoundTrip) {
  server::LiveStats s;
  s.arrivals = 100;
  s.admitted = 90;
  s.rejected = 10;
  s.deferrals = 5;
  s.degraded = 2;
  s.streams = 40;
  s.cost = 123.5;
  s.current_channels = 7;
  s.peak_channels = 12;
  s.wait.mean = 0.004;
  s.wait.max = 0.01;
  s.wait.p50 = 0.003;
  s.wait.p95 = 0.008;
  s.wait.p99 = 0.009;
  s.live_sessions = 3;
  s.session_pauses = 1;
  s.session_seeks = 2;
  s.session_abandons = 4;
  util::SnapshotWriter w;
  server::write_live_stats(w, s);
  util::SnapshotReader r(w.payload());
  const server::LiveStats got = server::read_live_stats(r);
  r.expect_end();
  EXPECT_EQ(got.arrivals, s.arrivals);
  EXPECT_EQ(got.admitted, s.admitted);
  EXPECT_EQ(got.rejected, s.rejected);
  EXPECT_EQ(got.deferrals, s.deferrals);
  EXPECT_EQ(got.degraded, s.degraded);
  EXPECT_EQ(got.streams, s.streams);
  EXPECT_EQ(got.cost, s.cost);
  EXPECT_EQ(got.current_channels, s.current_channels);
  EXPECT_EQ(got.peak_channels, s.peak_channels);
  EXPECT_EQ(got.wait.mean, s.wait.mean);
  EXPECT_EQ(got.wait.max, s.wait.max);
  EXPECT_EQ(got.wait.p50, s.wait.p50);
  EXPECT_EQ(got.wait.p95, s.wait.p95);
  EXPECT_EQ(got.wait.p99, s.wait.p99);
  EXPECT_EQ(got.live_sessions, s.live_sessions);
  EXPECT_EQ(got.session_pauses, s.session_pauses);
  EXPECT_EQ(got.session_seeks, s.session_seeks);
  EXPECT_EQ(got.session_abandons, s.session_abandons);
}

TEST(NetWire, SummaryRoundTrip) {
  server::WireSummary s;
  s.ok = true;
  s.digest = 0x0123456789ABCDEFull;
  s.total_arrivals = 1000;
  s.total_streams = 600;
  s.streams_served = 599.5;
  s.peak_concurrency = 77;
  s.guarantee_violations = 0;
  s.rejected = 4;
  s.wait.mean = 0.005;
  s.wait.max = 0.01;
  s.wait.p50 = 0.004;
  s.wait.p95 = 0.009;
  s.wait.p99 = 0.0095;
  util::SnapshotWriter w;
  server::write_summary(w, s);
  util::SnapshotReader r(w.payload());
  const server::WireSummary got = server::read_summary(r);
  r.expect_end();
  EXPECT_EQ(got.ok, s.ok);
  EXPECT_EQ(got.digest, s.digest);
  EXPECT_EQ(got.total_arrivals, s.total_arrivals);
  EXPECT_EQ(got.total_streams, s.total_streams);
  EXPECT_EQ(got.streams_served, s.streams_served);
  EXPECT_EQ(got.peak_concurrency, s.peak_concurrency);
  EXPECT_EQ(got.guarantee_violations, s.guarantee_violations);
  EXPECT_EQ(got.rejected, s.rejected);
  EXPECT_EQ(got.wait.mean, s.wait.mean);
  EXPECT_EQ(got.wait.max, s.wait.max);
  EXPECT_EQ(got.wait.p50, s.wait.p50);
  EXPECT_EQ(got.wait.p95, s.wait.p95);
  EXPECT_EQ(got.wait.p99, s.wait.p99);
}

}  // namespace
}  // namespace smerge::net
