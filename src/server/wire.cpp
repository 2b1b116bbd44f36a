#include "server/wire.h"

#include "util/snapshot.h"

namespace smerge::server {

namespace {

void write_profile(util::SnapshotWriter& writer, const util::DelayProfile& p) {
  writer.f64(p.mean);
  writer.f64(p.p50);
  writer.f64(p.p95);
  writer.f64(p.p99);
  writer.f64(p.max);
}

util::DelayProfile read_profile(util::SnapshotReader& reader) {
  util::DelayProfile p;
  p.mean = reader.f64();
  p.p50 = reader.f64();
  p.p95 = reader.f64();
  p.p99 = reader.f64();
  p.max = reader.f64();
  return p;
}

}  // namespace

void write_ticket(util::SnapshotWriter& writer, const Ticket& ticket) {
  writer.boolean(ticket.admitted);
  writer.i64(ticket.object);
  writer.i64(ticket.slot);
  writer.f64(ticket.arrival);
  writer.f64(ticket.decision_time);
  writer.f64(ticket.playback_start);
  writer.f64(ticket.wait);
  writer.f64(ticket.guarantee_wait);
  writer.i64(ticket.deferred_slots);
  writer.boolean(ticket.degraded);
}

Ticket read_ticket(util::SnapshotReader& reader) {
  Ticket t;
  t.admitted = reader.boolean();
  t.object = reader.i64();
  t.slot = reader.i64();
  t.arrival = reader.f64();
  t.decision_time = reader.f64();
  t.playback_start = reader.f64();
  t.wait = reader.f64();
  t.guarantee_wait = reader.f64();
  t.deferred_slots = reader.i64();
  t.degraded = reader.boolean();
  return t;
}

void write_live_stats(util::SnapshotWriter& writer, const LiveStats& stats) {
  writer.i64(stats.arrivals);
  writer.i64(stats.admitted);
  writer.i64(stats.rejected);
  writer.i64(stats.deferrals);
  writer.i64(stats.degraded);
  writer.i64(stats.streams);
  writer.f64(stats.cost);
  writer.i64(stats.current_channels);
  writer.i64(stats.peak_channels);
  write_profile(writer, stats.wait);
  writer.i64(stats.live_sessions);
  writer.i64(stats.session_pauses);
  writer.i64(stats.session_seeks);
  writer.i64(stats.session_abandons);
}

LiveStats read_live_stats(util::SnapshotReader& reader) {
  LiveStats s;
  s.arrivals = reader.i64();
  s.admitted = reader.i64();
  s.rejected = reader.i64();
  s.deferrals = reader.i64();
  s.degraded = reader.i64();
  s.streams = reader.i64();
  s.cost = reader.f64();
  s.current_channels = reader.i64();
  s.peak_channels = reader.i64();
  s.wait = read_profile(reader);
  s.live_sessions = reader.i64();
  s.session_pauses = reader.i64();
  s.session_seeks = reader.i64();
  s.session_abandons = reader.i64();
  return s;
}

WireSummary summarize(const Snapshot& snapshot) {
  WireSummary s;
  s.ok = true;
  s.digest = snapshot_digest(snapshot);
  s.total_arrivals = snapshot.total_arrivals;
  s.total_streams = snapshot.total_streams;
  s.streams_served = snapshot.streams_served;
  s.peak_concurrency = snapshot.peak_concurrency;
  s.guarantee_violations = snapshot.guarantee_violations;
  s.rejected = snapshot.rejected;
  s.wait = snapshot.wait;
  return s;
}

void write_summary(util::SnapshotWriter& writer, const WireSummary& summary) {
  writer.boolean(summary.ok);
  writer.u64(summary.digest);
  writer.i64(summary.total_arrivals);
  writer.i64(summary.total_streams);
  writer.f64(summary.streams_served);
  writer.i64(summary.peak_concurrency);
  writer.i64(summary.guarantee_violations);
  writer.i64(summary.rejected);
  write_profile(writer, summary.wait);
}

WireSummary read_summary(util::SnapshotReader& reader) {
  WireSummary s;
  s.ok = reader.boolean();
  s.digest = reader.u64();
  s.total_arrivals = reader.i64();
  s.total_streams = reader.i64();
  s.streams_served = reader.f64();
  s.peak_concurrency = reader.i64();
  s.guarantee_violations = reader.i64();
  s.rejected = reader.i64();
  s.wait = read_profile(reader);
  return s;
}

std::uint64_t snapshot_digest(const Snapshot& snapshot) {
  util::SnapshotWriter w;
  w.i64(snapshot.total_arrivals);
  w.i64(snapshot.total_streams);
  w.f64(snapshot.streams_served);
  write_profile(w, snapshot.wait);
  w.i64(snapshot.peak_concurrency);
  w.i64(snapshot.guarantee_violations);
  w.i64(snapshot.capacity_violations);
  w.i64(snapshot.rejected);
  w.i64(snapshot.deferrals);
  w.i64(snapshot.degraded);
  w.i64(snapshot.total_sessions);
  w.i64(snapshot.session_pauses);
  w.i64(snapshot.session_seeks);
  w.i64(snapshot.session_abandons);
  w.i64(snapshot.plan_truncations);
  w.i64(snapshot.plan_reroots);
  w.f64(snapshot.retracted_cost);
  w.f64(snapshot.extended_cost);
  w.u64(snapshot.per_object.size());
  for (const ObjectOutcome& o : snapshot.per_object) {
    w.i64(o.arrivals);
    w.i64(o.streams);
    w.f64(o.cost);
    w.f64(o.max_wait);
    w.i64(o.peak_concurrency);
    w.i64(o.violations);
    w.i64(o.sessions);
    w.i64(o.session_pauses);
    w.i64(o.session_seeks);
    w.i64(o.session_abandons);
    w.i64(o.plan_truncations);
    w.i64(o.plan_reroots);
    w.f64(o.retracted_cost);
    w.f64(o.extended_cost);
  }
  return util::fnv1a64(w.payload());
}

}  // namespace smerge::server
