// The incremental server-wide channel ledger.
//
// The legacy engine learned its channel occupancy only at end-of-run: a
// k-way merge over every object's sorted +-1 event sequence. The ledger
// replaces that with bucketed difference counters maintained *while the
// run is in flight*, so "how many channels are busy right now", "what
// is the peak so far" and "would one more stream fit under the budget"
// are O(log B) queries at any time — the substrate for live stats and
// capacity-aware admission (src/server/server_core.h).
//
// Layout: the time axis is cut into fixed-width buckets (one slot wide
// by default). A stream [start, end) contributes a +1 event to the
// bucket of `start` and a -1 event to the bucket of `end`; each bucket
// keeps its events sorted in the canonical sweep order — (time, ends
// before starts, object id) — alongside two summaries: `net`, the sum
// of its deltas, and `max_prefix`, the maximum running sum over its
// prefixes (floored at the empty prefix, 0). A segment tree over the
// bucket summaries combines them left-to-right
// (net = l.net + r.net, max_prefix = max(l.max_prefix, l.net +
// r.max_prefix)), which makes global peak O(1) at the root and
// occupancy / windowed-maximum queries O(log B) plus two partial bucket
// scans. Appends are O(1) amortized: a bucket only re-sorts its
// unsorted tail (and replays its tree path) when a query actually
// needs it.
//
// Exactness: the canonical in-bucket order is the same order the
// legacy k-way merge popped events in, and equal-key events commute in
// any depth computation, so peak and capacity accounting are
// bit-identical to the end-of-run reduction they replace (asserted by
// tests/test_server_core.cpp against `peak_overlap`).
#ifndef SMERGE_SERVER_CHANNEL_LEDGER_H
#define SMERGE_SERVER_CHANNEL_LEDGER_H

#include <cstdint>
#include <span>
#include <vector>

#include "fib/fibonacci.h"
#include "schedule/channels.h"

namespace smerge::util {
class SnapshotReader;
class SnapshotWriter;
class ThreadPool;
}  // namespace smerge::util

namespace smerge::server {

/// One +-1 occupancy edge, tagged with the emitting object so ties
/// break deterministically in the canonical sweep order.
/// `stream_start` marks the +1 of a genuine stream admission; the
/// compensation events a retraction appends carry false, so capacity
/// accounting never mistakes "a retracted reservation ended here" for
/// "a new stream started here".
struct LedgerEvent {
  double time = 0.0;
  Index object = 0;
  std::int32_t delta = 0;
  bool stream_start = false;
};

/// Sorted, bucketed, incrementally queryable channel occupancy.
class ChannelLedger {
 public:
  /// Buckets cover [0, span) in `bucket_width` steps; events at or
  /// beyond the span clamp into the final bucket (order inside a
  /// bucket is still exact, so clamping never changes any result).
  /// Throws std::invalid_argument on a non-positive span or width.
  ChannelLedger(double span, double bucket_width);

  /// Records one transmission interval [start, end). O(1) amortized.
  void add_interval(double start, double end, Index object);

  /// One object's events as its recorder holds them: each +1 is a
  /// stream start, each -1 an end, tagged with `object`.
  struct Run {
    Index object = 0;
    std::span<const ChannelEvent> events;
  };

  /// The one fill behind admit(), every drain and finish(). Returns
  /// before touching any bucket when the runs hold no event. When the
  /// runs hold fewer events than the tree has leaves, it appends them
  /// one by one on the caller's thread, a tree path each, exactly like
  /// `add_interval`. Otherwise it fills in bulk over
  /// `parts` workers of `pool`: worker p owns a contiguous range of
  /// buckets, walks the runs in place, in the given order, appending
  /// only the events that land in its range, and then sorts its
  /// unsorted buckets; one O(B) pass rebuilds the tree. (A first pass
  /// notes where in each run each range's events lie, so a worker reads
  /// little beyond its own events.) Either way every bucket ends with
  /// the events `add_interval` over the same runs would give it, so
  /// queries and `save()` bytes never depend on which fill ran.
  void apply_runs(std::span<const Run> runs, util::ThreadPool& pool, unsigned parts);

  /// Moves a previously recorded interval's end (plan repair): appends
  /// the compensating difference pair — {new_end, -1}, {old_end, +1}
  /// for a retraction, the mirror for an extension — instead of
  /// rewriting history, so the ledger stays append-only and O(1)
  /// amortized. The +1 of a retraction pair is *not* a stream start
  /// (`stream_start` false) and never counts as a capacity violation.
  void move_end(double old_end, double new_end, Index object);

  /// Number of recorded events (two per interval).
  [[nodiscard]] std::int64_t events() const noexcept { return events_; }

  /// Peak simultaneous occupancy over everything recorded so far.
  [[nodiscard]] Index peak();

  /// Channels busy at time `t`: streams with start <= t and end > t.
  [[nodiscard]] Index occupancy_at(double t);

  /// Maximum occupancy over the window [a, b) — the admission-time
  /// "would a stream spanning this window fit" primitive. Requires
  /// a <= b.
  [[nodiscard]] Index max_over(double a, double b);

  /// Stream starts that found more than `capacity` channels busy after
  /// starting — the legacy engine's end-of-run accounting, now one
  /// O(events) sweep over the sorted buckets. Requires capacity >= 1.
  [[nodiscard]] Index capacity_violations(Index capacity);

  /// Appends the ledger's canonical state to a checkpoint payload: each
  /// bucket's events in the canonical sweep order (a bucket with an
  /// unsorted tail is written from a sorted copy), with no sort cursor
  /// and no dirty list. The order ties only byte-identical events, so
  /// the bytes depend on what was recorded, never on the order or
  /// batching it was recorded in, nor on which queries ran between.
  void save(util::SnapshotWriter& writer) const;

  /// Restores state written by `save` into this ledger, which must have
  /// been constructed with the same span/bucket width (the bucket count
  /// and width are validated). Every bucket comes back sorted, its
  /// summaries and the segment tree recomputed. Throws
  /// util::SnapshotError on mismatch or malformed bytes, including a
  /// bucket out of canonical order and an event filed in a bucket
  /// other than its time's.
  void restore(util::SnapshotReader& reader);

 private:
  struct Bucket {
    std::vector<LedgerEvent> events;
    /// Derived shadow of `events[i].delta` in the same order, kept
    /// contiguous so the summary recompute and the windowed-max scans
    /// run through the SIMD kernels (util/simd.h) without a gather.
    /// Never serialized: rebuilt on restore and on every re-sort.
    std::vector<std::int32_t> deltas;
    std::size_t sorted = 0;        ///< prefix of `events` already in order
    std::int64_t net = 0;          ///< sum of deltas (always current)
    std::int64_t max_prefix = 0;   ///< max running sum over prefixes (>= 0)
  };

  [[nodiscard]] std::size_t bucket_of(double t) const noexcept;
  /// The one append behind push_event and apply_runs:
  /// extends the bucket, its sorted cursor and its summaries. Returns
  /// true when the bucket has just gained an unsorted tail, so the
  /// caller records it as dirty. Leaves the tree alone.
  static bool append(Bucket& bucket, const LedgerEvent& e);
  /// The one bucket sort: merges the unsorted tail into the sorted
  /// prefix (sorted tail + inplace_merge) and recomputes deltas and
  /// max_prefix. Leaves the tree alone.
  static void sort_bucket(Bucket& bucket);
  void push_event(const LedgerEvent& e);
  void ensure_sorted(std::size_t b);
  void flush();
  /// Sum of bucket nets over [0, b) — occupancy at bucket b's start.
  [[nodiscard]] std::int64_t net_before(std::size_t b) const noexcept;
  /// Combined (net, max_prefix) over buckets [lo, hi).
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> combine_range(
      std::size_t lo, std::size_t hi) const noexcept;
  void tree_update(std::size_t b) noexcept;
  /// Recomputes every tree node from the bucket summaries, O(B).
  void rebuild_tree() noexcept;
  void pull(std::size_t node) noexcept;

  double width_;
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> dirty_;  ///< bucket ids with unsorted tails
  std::int64_t events_ = 0;

  // Flat segment tree over bucket summaries: leaves_ buckets rounded up
  // to a power of two, nodes 1-based (node 1 = root).
  std::size_t leaves_ = 1;
  std::vector<std::int64_t> tree_net_;
  std::vector<std::int64_t> tree_maxp_;
};

}  // namespace smerge::server

#endif  // SMERGE_SERVER_CHANNEL_LEDGER_H
