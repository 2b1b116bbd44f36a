#include "server/channel_ledger.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/slot_clock.h"
#include "util/simd.h"
#include "util/snapshot.h"
#include "util/thread_pool.h"

namespace smerge::server {

namespace {

/// The canonical sweep order: time ascending, ends (-1) before starts
/// (+1) at equal times, retraction compensations before genuine starts,
/// object id as the final tie-break. For runs without retraction every
/// +1 is a stream start and every -1 is not, so the order degenerates
/// to the exact order the legacy k-way merge popped events in.
bool event_less(const LedgerEvent& a, const LedgerEvent& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  if (a.delta != b.delta) return a.delta < b.delta;
  if (a.stream_start != b.stream_start) return !a.stream_start;
  return a.object < b.object;
}

// Branch-free max of the scan loops, now shared with the vector kernels
// it is the oracle for.
using util::simd::bmax;

/// First index in a *sorted* bucket whose event time exceeds `t`.
std::size_t first_after(const std::vector<LedgerEvent>& events,
                        double t) noexcept {
  return static_cast<std::size_t>(
      std::upper_bound(events.begin(), events.end(), t,
                       [](double v, const LedgerEvent& e) {
                         return v < e.time;
                       }) -
      events.begin());
}

/// First index in a *sorted* bucket whose event time is at least `t`.
std::size_t first_at_or_after(const std::vector<LedgerEvent>& events,
                              double t) noexcept {
  return static_cast<std::size_t>(
      std::lower_bound(events.begin(), events.end(), t,
                       [](const LedgerEvent& e, double v) {
                         return e.time < v;
                       }) -
      events.begin());
}

}  // namespace

ChannelLedger::ChannelLedger(double span, double bucket_width) : width_(bucket_width) {
  if (!(span > 0.0)) {
    throw std::invalid_argument("ChannelLedger: span must be positive");
  }
  if (!(bucket_width > 0.0)) {
    throw std::invalid_argument("ChannelLedger: bucket width must be positive");
  }
  if (!(span / bucket_width < 1e8)) {
    throw std::invalid_argument("ChannelLedger: too many buckets");
  }
  buckets_.resize(static_cast<std::size_t>(slot_of(span, bucket_width)) + 1);
  leaves_ = 1;
  while (leaves_ < buckets_.size()) leaves_ *= 2;
  tree_net_.assign(2 * leaves_, 0);
  tree_maxp_.assign(2 * leaves_, 0);
}

std::size_t ChannelLedger::bucket_of(double t) const noexcept {
  // Bucket k holds ((k-1)w, kw]; later times clamp into the last one.
  const auto last = buckets_.size() - 1;
  if (t > slot_start(static_cast<Index>(last), width_)) return last;
  return static_cast<std::size_t>(slot_of(t, width_));
}

void ChannelLedger::pull(std::size_t node) noexcept {
  const std::size_t l = 2 * node;
  const std::size_t r = 2 * node + 1;
  tree_net_[node] = tree_net_[l] + tree_net_[r];
  tree_maxp_[node] = std::max(tree_maxp_[l], tree_net_[l] + tree_maxp_[r]);
}

void ChannelLedger::tree_update(std::size_t b) noexcept {
  std::size_t pos = leaves_ + b;
  tree_net_[pos] = buckets_[b].net;
  tree_maxp_[pos] = buckets_[b].max_prefix;
  for (pos /= 2; pos >= 1; pos /= 2) pull(pos);
}

void ChannelLedger::rebuild_tree() noexcept {
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    tree_net_[leaves_ + b] = buckets_[b].net;
    tree_maxp_[leaves_ + b] = buckets_[b].max_prefix;
  }
  for (std::size_t pos = leaves_ - 1; pos >= 1; --pos) pull(pos);
}

bool ChannelLedger::append(Bucket& bucket, const LedgerEvent& e) {
  const bool was_clean = bucket.sorted == bucket.events.size();
  const bool in_order =
      bucket.events.empty() || !event_less(e, bucket.events.back());
  bucket.events.push_back(e);
  bucket.deltas.push_back(e.delta);
  bucket.net += e.delta;
  if (was_clean && in_order) {
    // Common case (streams arrive roughly in time order): the bucket
    // stays sorted and its max-prefix extends in O(1).
    bucket.sorted = bucket.events.size();
    bucket.max_prefix = bmax(bucket.max_prefix, bucket.net);
    return false;
  }
  return was_clean;
}

void ChannelLedger::push_event(const LedgerEvent& e) {
  const std::size_t b = bucket_of(e.time);
  if (append(buckets_[b], e)) dirty_.push_back(static_cast<std::uint32_t>(b));
  tree_update(b);
  ++events_;
}

void ChannelLedger::add_interval(double start, double end, Index object) {
  if (!(start >= 0.0) || !(end >= start)) {
    throw std::invalid_argument("ChannelLedger: bad interval");
  }
  push_event({start, object, +1, true});
  push_event({end, object, -1, false});
}

void ChannelLedger::apply_runs(std::span<const Run> runs, util::ThreadPool& pool,
                               unsigned parts) {
  std::int64_t added = 0;
  for (const Run& run : runs) added += static_cast<std::int64_t>(run.events.size());
  // Drains whose policies emit nothing until finish() cost nothing here.
  if (added == 0) return;
  // Fewer events than tree leaves (an admission, a live server's
  // frequent small drains) cost less appended one by one, a tree path
  // each, with sorting left to the first query that needs it, than the
  // O(B) passes, two pool fan-outs and eager sorts below.
  if (added < static_cast<std::int64_t>(leaves_)) {
    for (const Run& run : runs) {
      for (const ChannelEvent& c : run.events) {
        push_event({c.time, run.object, c.delta, c.delta > 0});
      }
    }
    return;
  }
  const std::size_t count = buckets_.size();
  const std::size_t width = std::clamp<std::size_t>(parts, 1, count);
  const auto lo_of = [&](std::size_t p) { return count * p / width; };
  std::vector<std::uint32_t> owner(count);
  for (std::size_t p = 0; p < width; ++p) {
    std::fill(owner.begin() + static_cast<std::ptrdiff_t>(lo_of(p)),
              owner.begin() + static_cast<std::ptrdiff_t>(lo_of(p + 1)),
              static_cast<std::uint32_t>(p));
  }
  // First, over runs: the index window [first, last) of each run that
  // holds each part's events. Runs are emission-ordered, so close to
  // time-ordered, and a window covers little beyond the part's share:
  // the parts then read each event about twice in all, not once each.
  struct Window {
    std::size_t first = 0;
    std::size_t last = 0;
  };
  std::vector<Window> windows(runs.size() * width);
  pool.run(0, static_cast<std::int64_t>(runs.size()), 1, static_cast<unsigned>(width),
           [&](std::int64_t r) {
             const auto i = static_cast<std::size_t>(r);
             Window* w = windows.data() + i * width;
             const std::span<const ChannelEvent> events = runs[i].events;
             for (std::size_t j = 0; j < events.size(); ++j) {
               Window& part = w[owner[bucket_of(events[j].time)]];
               if (part.last == 0) part.first = j;
               part.last = j + 1;
             }
           });
  const auto fill = [&](std::int64_t part) {
    const auto p = static_cast<std::size_t>(part);
    const std::size_t lo = lo_of(p);
    const std::size_t hi = lo_of(p + 1);
    // Visits this part's events in run order, each run in index order.
    const auto each_own = [&](auto&& visit) {
      for (std::size_t i = 0; i < runs.size(); ++i) {
        const Window w = windows[i * width + p];
        for (std::size_t j = w.first; j < w.last; ++j) {
          const ChannelEvent& c = runs[i].events[j];
          const std::size_t b = bucket_of(c.time);
          if (b >= lo && b < hi) visit(b, runs[i].object, c);
        }
      }
    };
    // Exact reservations: no regrowth copies and no slack capacity.
    std::vector<std::size_t> adds(hi - lo, 0);
    each_own([&](std::size_t b, Index, const ChannelEvent&) { ++adds[b - lo]; });
    for (std::size_t b = lo; b < hi; ++b) {
      buckets_[b].events.reserve(buckets_[b].events.size() + adds[b - lo]);
      buckets_[b].deltas.reserve(buckets_[b].deltas.size() + adds[b - lo]);
    }
    // Buckets left dirty by earlier appends, then the ones this fill
    // dirties: disjoint, since a dirty bucket cannot go dirty again.
    std::vector<std::uint32_t> unsorted;
    for (const std::uint32_t b : dirty_) {
      if (b >= lo && b < hi) unsorted.push_back(b);
    }
    each_own([&](std::size_t b, Index object, const ChannelEvent& c) {
      if (append(buckets_[b], {c.time, object, c.delta, c.delta > 0})) {
        unsorted.push_back(static_cast<std::uint32_t>(b));
      }
    });
    for (const std::uint32_t b : unsorted) sort_bucket(buckets_[b]);
  };
  pool.run(0, static_cast<std::int64_t>(width), 1, static_cast<unsigned>(width), fill);
  events_ += added;
  dirty_.clear();
  rebuild_tree();
}

void ChannelLedger::move_end(double old_end, double new_end, Index object) {
  if (!(old_end >= 0.0) || !(new_end >= 0.0)) {
    throw std::invalid_argument("ChannelLedger: bad end move");
  }
  if (old_end == new_end) return;
  // A difference pair cancelling [min, max) of the original interval
  // (retraction) or reserving the extra [old, new) (extension). Neither
  // +1 is a stream start.
  if (new_end < old_end) {
    push_event({new_end, object, -1, false});
    push_event({old_end, object, +1, false});
  } else {
    push_event({old_end, object, +1, false});
    push_event({new_end, object, -1, false});
  }
}

void ChannelLedger::sort_bucket(Bucket& bucket) {
  const auto mid = bucket.events.begin() + static_cast<std::ptrdiff_t>(bucket.sorted);
  std::sort(mid, bucket.events.end(), event_less);
  std::inplace_merge(bucket.events.begin(), mid, bucket.events.end(), event_less);
  bucket.sorted = bucket.events.size();
  for (std::size_t i = 0; i < bucket.events.size(); ++i) {
    bucket.deltas[i] = bucket.events[i].delta;
  }
  bucket.max_prefix =
      util::simd::prefix_scan(bucket.deltas.data(), bucket.deltas.size(),
                              /*running=*/0, /*best=*/0)
          .best;
}

void ChannelLedger::ensure_sorted(std::size_t b) {
  Bucket& bucket = buckets_[b];
  if (bucket.sorted == bucket.events.size()) return;
  sort_bucket(bucket);
  tree_update(b);
}

void ChannelLedger::flush() {
  for (const std::uint32_t b : dirty_) ensure_sorted(b);
  dirty_.clear();
}

std::pair<std::int64_t, std::int64_t> ChannelLedger::combine_range(
    std::size_t lo, std::size_t hi) const noexcept {
  // Left-to-right combine: maxp is relative to the range's start, with
  // the empty prefix (0) always a candidate — exact because occupancy
  // at a bucket boundary is itself a genuine sweep value.
  std::int64_t lnet = 0, lmax = 0, rnet = 0, rmax = 0;
  std::size_t l = leaves_ + lo;
  std::size_t r = leaves_ + hi;
  while (l < r) {
    if (l & 1) {
      lmax = std::max(lmax, lnet + tree_maxp_[l]);
      lnet += tree_net_[l];
      ++l;
    }
    if (r & 1) {
      --r;
      rmax = std::max(tree_maxp_[r], tree_net_[r] + rmax);
      rnet = tree_net_[r] + rnet;
    }
    l /= 2;
    r /= 2;
  }
  return {lnet + rnet, std::max(lmax, lnet + rmax)};
}

std::int64_t ChannelLedger::net_before(std::size_t b) const noexcept {
  return combine_range(0, b).first;
}

Index ChannelLedger::peak() {
  flush();
  return static_cast<Index>(tree_maxp_[1]);
}

Index ChannelLedger::occupancy_at(double t) {
  const std::size_t b = bucket_of(t);
  ensure_sorted(b);
  const Bucket& bucket = buckets_[b];
  // The bucket is sorted, so "everything at or before t" is a prefix:
  // locate it by time and let the vector kernel sum the deltas.
  const std::size_t k = first_after(bucket.events, t);
  const std::int64_t depth =
      net_before(b) + util::simd::sum(bucket.deltas.data(), k);
  return static_cast<Index>(depth);
}

Index ChannelLedger::max_over(double a, double b) {
  if (!(a <= b)) {
    throw std::invalid_argument("ChannelLedger::max_over: requires a <= b");
  }
  // The window may span dirty buckets whose tree summaries are stale —
  // bring every one current before combining.
  flush();
  const std::size_t ba = bucket_of(a);
  const std::size_t bb = bucket_of(b);
  std::int64_t depth = net_before(ba);
  std::int64_t best;
  {
    const Bucket& bucket = buckets_[ba];
    // Everything at or before `a` contributes to the occupancy at the
    // window's left edge — the first candidate. flush() left every
    // bucket sorted, so both boundaries are binary searches and the
    // scans between them run through the vector kernels.
    const std::size_t i = first_after(bucket.events, a);
    depth += util::simd::sum(bucket.deltas.data(), i);
    best = depth;
    // An empty window (a == b) with events at `a` would put the stop
    // before `i`; it scans nothing and answers the occupancy at `a`.
    const std::size_t stop = ba == bb ? std::max(i, first_at_or_after(bucket.events, b))
                                      : bucket.events.size();
    const auto scan = util::simd::prefix_scan(bucket.deltas.data() + i,
                                              stop - i, depth, best);
    depth = scan.running;
    best = scan.best;
  }
  if (bb > ba) {
    const auto [mid_net, mid_max] = combine_range(ba + 1, bb);
    best = std::max(best, depth + mid_max);
    depth += mid_net;
    const Bucket& last = buckets_[bb];
    const std::size_t k = first_at_or_after(last.events, b);
    best = util::simd::prefix_scan(last.deltas.data(), k, depth, best).best;
  }
  return static_cast<Index>(best);
}

void ChannelLedger::save(util::SnapshotWriter& writer) const {
  writer.f64(width_);
  writer.u64(buckets_.size());
  writer.i64(events_);
  std::vector<LedgerEvent> sorted;
  for (const Bucket& bucket : buckets_) {
    std::span<const LedgerEvent> events = bucket.events;
    if (bucket.sorted != bucket.events.size()) {
      sorted.assign(bucket.events.begin(), bucket.events.end());
      std::sort(sorted.begin(), sorted.end(), event_less);
      events = sorted;
    }
    writer.u64(events.size());
    for (const LedgerEvent& e : events) {
      writer.f64(e.time);
      writer.i64(e.object);
      writer.i64(e.delta);
      writer.boolean(e.stream_start);
    }
  }
}

void ChannelLedger::restore(util::SnapshotReader& reader) {
  const double width = reader.f64();
  const std::uint64_t bucket_count = reader.u64();
  if (width != width_ || bucket_count != buckets_.size()) {
    throw util::SnapshotError(
        "ChannelLedger: restore geometry mismatch (span/bucket width differ "
        "from the constructed ledger)");
  }
  const std::int64_t events = reader.i64();
  std::vector<Bucket> buckets(buckets_.size());
  std::int64_t counted = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    Bucket& bucket = buckets[b];
    const std::uint64_t n = reader.u64();
    // time + object + delta + stream_start byte per event.
    if (n > reader.remaining() / 25) {
      throw util::SnapshotError(
          "ChannelLedger: event count exceeds remaining bytes");
    }
    bucket.events.resize(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < bucket.events.size(); ++i) {
      LedgerEvent& e = bucket.events[i];
      e.time = reader.f64();
      e.object = reader.i64();
      const std::int64_t delta = reader.i64();
      if (delta != 1 && delta != -1) {
        throw util::SnapshotError("ChannelLedger: bad event delta");
      }
      e.delta = static_cast<std::int32_t>(delta);
      e.stream_start = reader.boolean();
      if (!(e.time >= 0.0) || bucket_of(e.time) != b) {
        throw util::SnapshotError("ChannelLedger: event filed in the wrong bucket");
      }
      if (i > 0 && event_less(e, bucket.events[i - 1])) {
        throw util::SnapshotError("ChannelLedger: bucket out of canonical order");
      }
      bucket.net += e.delta;
    }
    // Already in order: the sort only fills deltas and max_prefix.
    bucket.sorted = bucket.events.size();
    bucket.deltas.resize(bucket.events.size());
    sort_bucket(bucket);
    counted += static_cast<std::int64_t>(n);
  }
  if (counted != events) {
    throw util::SnapshotError("ChannelLedger: event total disagrees");
  }
  buckets_ = std::move(buckets);
  dirty_.clear();
  events_ = events;
  rebuild_tree();
}

Index ChannelLedger::capacity_violations(Index capacity) {
  if (capacity < 1) return 0;
  flush();
  std::int64_t depth = 0;
  Index violations = 0;
  for (const Bucket& bucket : buckets_) {
    for (const LedgerEvent& e : bucket.events) {
      depth += e.delta;
      if (e.stream_start && depth > capacity) ++violations;
    }
  }
  return violations;
}

}  // namespace smerge::server
