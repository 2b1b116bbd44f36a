// The slot clock: the one mapping from a time to the slot boundary that
// serves it. A client arriving in ((k-1)D, kD] starts at kD, so one
// exactly on a boundary starts at once; DG, batching, ServerCore's
// previews and the channel ledger's buckets all cut time through these
// two functions, and slot_start(slot_of(t, d), d) >= t in floating point.
#ifndef SMERGE_CORE_SLOT_CLOCK_H
#define SMERGE_CORE_SLOT_CLOCK_H

#include "fib/fibonacci.h"

namespace smerge {

/// Boundary k's time — the only expression a stream or ticket start uses.
[[nodiscard]] constexpr double slot_start(Index k, double d) noexcept {
  return static_cast<double>(k) * d;
}

/// The smallest k >= 0 with slot_start(k, d) >= t, exact at every
/// boundary with no epsilon. Requires d > 0 and t / d < 2^52; t <= 0
/// (and NaN) map to 0.
[[nodiscard]] constexpr Index slot_of(double t, double d) noexcept {
  // The truncated quotient k is the answer or one short: t / d rounding
  // to >= k keeps t above slot_start(k - 1, d), and a double above the
  // rounded product slot_start(k, d) is above the exact one.
  if (!(t > 0.0)) return 0;
  const auto k = static_cast<Index>(t / d);
  return slot_start(k, d) < t ? k + 1 : k;
}

}  // namespace smerge

#endif  // SMERGE_CORE_SLOT_CLOCK_H
