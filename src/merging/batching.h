// Batching front-ends and the non-merging baselines of Section 4.2.
//
// * `batch_arrivals` maps each arrival to the end of its D-long
//   interval (core/slot_clock) — a stream starts at the end of an
//   interval only if at least one client arrived inside it (this is
//   what distinguishes the batched dyadic algorithm from the Delay
//   Guaranteed algorithm, which starts a stream every interval
//   unconditionally).
// * `unicast_cost` is the no-multicast baseline (one full stream per
//   arrival); `batching_cost` is batching alone (one full stream per
//   nonempty interval) — the Theorem-14 comparison point.
#ifndef SMERGE_MERGING_BATCHING_H
#define SMERGE_MERGING_BATCHING_H

#include <vector>

#include "merging/general_forest.h"

namespace smerge::merging {

/// Maps each arrival to the end of its batching interval of length
/// `delay` (intervals are ((k-1)D, kD], producing start time kD), and
/// deduplicates: the result is the sorted set of stream start times.
/// Guarantees every client a start-up delay < D. Requires delay > 0 and
/// nondecreasing arrivals.
[[nodiscard]] std::vector<double> batch_arrivals(const std::vector<double>& arrivals,
                                                 double delay);

/// Immediate service with no merging: every arrival gets a private full
/// stream. Cost = arrivals.size() * media_length.
[[nodiscard]] double unicast_cost(const std::vector<double>& arrivals,
                                  double media_length);

/// Batching alone (no merging): one full stream per nonempty interval.
[[nodiscard]] double batching_cost(const std::vector<double>& arrivals,
                                   double media_length, double delay);

}  // namespace smerge::merging

#endif  // SMERGE_MERGING_BATCHING_H
