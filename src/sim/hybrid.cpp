#include "sim/hybrid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/slot_clock.h"
#include "online/delay_guaranteed.h"

namespace smerge::sim {

namespace {

std::size_t index_of(Index x) { return static_cast<std::size_t>(x); }

// Sweep-line peak over (start, duration) stream windows.
Index peak_of(std::vector<std::pair<double, int>>& events) {
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;  // ends before starts at equal times
  });
  Index depth = 0;
  Index peak = 0;
  for (const auto& [t, delta] : events) {
    depth += delta;
    peak = std::max(peak, static_cast<Index>(depth));
  }
  return peak;
}

}  // namespace

HybridOutcome run_hybrid(const std::vector<double>& arrivals, double horizon,
                         const HybridParams& params) {
  if (!(params.delay > 0.0) || params.delay > 1.0) {
    throw std::invalid_argument("run_hybrid: delay must be in (0, 1]");
  }
  if (params.window < 1) {
    throw std::invalid_argument("run_hybrid: window must be >= 1");
  }
  const double D = params.delay;
  const Index L = std::max<Index>(1, static_cast<Index>(std::llround(1.0 / D)));
  const Index slots = std::max<Index>(1, slot_of(horizon, D));
  const DelayGuaranteedOnline dg(L);

  // Arrivals per slot k covering (kD, (k+1)D], k = 0..slots-1.
  std::vector<Index> occupancy(index_of(slots), 0);
  std::vector<std::vector<double>> per_slot(occupancy.size());
  double prev = 0.0;
  for (const double t : arrivals) {
    if (t < prev) throw std::invalid_argument("run_hybrid: arrivals must be sorted");
    prev = t;
    const Index k = std::min<Index>(slots - 1, std::max<Index>(0, slot_of(t, D) - 1));
    ++occupancy[index_of(k)];
    per_slot[index_of(k)].push_back(t);
  }

  HybridOutcome out;
  // Mode decision with hysteresis over the trailing window: all trailing
  // slots busy => DG; all idle => dyadic; mixed => keep the current mode.
  std::vector<bool> dg_mode(index_of(slots), false);
  bool mode = false;  // start idle => dyadic
  for (Index k = 0; k < slots; ++k) {
    const Index lo = std::max<Index>(0, k - params.window);
    Index nonempty = 0;
    for (Index j = lo; j < k; ++j) {
      if (occupancy[index_of(j)] > 0) ++nonempty;
    }
    if (k - lo >= params.window) {
      const bool was = mode;
      if (nonempty == k - lo) mode = true;
      else if (nonempty == 0) mode = false;
      if (was != mode) ++out.mode_switches;
    }
    dg_mode[index_of(k)] = mode;
    if (mode) ++out.dg_slots;
    else ++out.dyadic_slots;
  }

  double total_cost = 0.0;  // media-length units
  Index full_streams = 0;
  Index streams_started = 0;
  std::vector<std::pair<double, int>> events;

  // DG runs: contiguous DG-mode stretches, each costed with the exact
  // on-line DG cost; stream windows recorded for the concurrency sweep.
  for (Index k = 0; k < slots;) {
    if (!dg_mode[index_of(k)]) {
      ++k;
      continue;
    }
    Index end = k;
    while (end < slots && dg_mode[index_of(end)]) ++end;
    const Index run = end - k;
    total_cost += static_cast<double>(dg.cost(run)) / static_cast<double>(L);
    for (Index t = 0; t < run; ++t) {
      const double start = slot_start(k + t + 1, D);
      const double dur = static_cast<double>(dg.stream_length(t, run)) * D;
      events.emplace_back(start, +1);
      events.emplace_back(start + dur, -1);
      ++streams_started;
      if (t % dg.block_size() == 0) ++full_streams;
    }
    k = end;
  }

  // Dyadic runs: raw arrivals of dyadic-mode stretches served immediately
  // by a fresh merger (streams never merge across a mode switch).
  for (Index k = 0; k < slots;) {
    if (dg_mode[index_of(k)]) {
      ++k;
      continue;
    }
    Index end = k;
    while (end < slots && !dg_mode[index_of(end)]) ++end;
    merging::DyadicMerger merger(1.0, params.dyadic);
    for (Index j = k; j < end; ++j) {
      for (const double t : per_slot[index_of(j)]) merger.arrive(t);
    }
    const merging::GeneralMergeForest& forest = merger.forest();
    total_cost += forest.total_cost();
    full_streams += forest.num_roots();
    streams_started += forest.size();
    for (Index i = 0; i < forest.size(); ++i) {
      const double start = forest.stream(i).time;
      events.emplace_back(start, +1);
      events.emplace_back(start + forest.stream_duration(i), -1);
    }
    k = end;
  }

  out.bandwidth.streams_served = total_cost;
  out.bandwidth.full_streams = full_streams;
  out.bandwidth.streams_started = streams_started;
  out.bandwidth.peak_concurrency = peak_of(events);
  return out;
}

}  // namespace smerge::sim
