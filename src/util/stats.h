// Streaming summary statistics (Welford) used by the simulation experiments
// to aggregate bandwidth measurements over repeated seeded runs.
#ifndef SMERGE_UTIL_STATS_H
#define SMERGE_UTIL_STATS_H

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace smerge::util {

class ThreadPool;

/// Accumulates min/max/mean/variance in a single pass (Welford's method),
/// numerically stable for long simulation runs.
class RunningStats {
 public:
  /// Adds one observation.
  void add(double x) noexcept;

  /// Number of observations so far.
  [[nodiscard]] std::int64_t count() const noexcept { return n_; }
  /// Smallest observation; +inf when empty.
  [[nodiscard]] double min() const noexcept { return min_; }
  /// Largest observation; -inf when empty.
  [[nodiscard]] double max() const noexcept { return max_; }
  /// Arithmetic mean; 0 when empty.
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 for fewer than two observations.
  [[nodiscard]] double variance() const noexcept;
  /// Square root of `variance()`.
  [[nodiscard]] double stddev() const noexcept;
  /// Sum of all observations.
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other) noexcept;

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact nearest-rank q-quantile of `sorted` (ascending): the value at
/// rank ceil(q * n). `sorted` MUST already be ascending (callers sort
/// once and query several quantiles). Returns 0 for an empty vector;
/// requires q in [0, 1].
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted, double q);

/// The same nearest-rank quantiles without a full sort: one
/// `nth_element` per distinct rank, each on the suffix the previous
/// selection left (O(n) expected overall). Entry i of the result equals
/// `quantile_sorted(sorted(values), qs[i])` exactly. `qs` must be
/// ascending, each in [0, 1]; `values` is permuted. An empty `values`
/// yields all zeros.
[[nodiscard]] std::vector<double> nearest_rank_quantiles(
    std::vector<double>& values, std::span<const double> qs);

/// The same quantiles over values spread across `sources`, without
/// gathering them: parallel passes over `pool` (at most `threads`
/// participants) find the range, histogram the values into equal-width
/// bins, and collect only the bins that hold a wanted rank, which are
/// then selected from as above. Exact: the bin map is monotone, so a
/// rank's value always lies in the bin where the running count passes
/// it. Values must not be NaN; a range too wide for the bin arithmetic
/// falls back to gathering everything.
[[nodiscard]] std::vector<double> nearest_rank_quantiles(
    std::span<const std::span<const double>> sources, std::span<const double> qs,
    ThreadPool& pool, unsigned threads);

/// The complete state of a `P2Quantile` estimator — every marker, so a
/// restored estimator continues bit-identically from where the saved
/// one stopped. Two states compare equal iff every field (including
/// each marker array element) is bitwise-equal, which is exactly the
/// oracle the checkpoint round-trip tests assert.
struct P2State {
  double q = 0.0;
  std::int64_t n = 0;
  double heights[5] = {};
  double positions[5] = {};
  double desired[5] = {};
  double increments[5] = {};

  friend bool operator==(const P2State&, const P2State&) = default;
};

/// Running quantile estimator (the P-squared algorithm of Jain &
/// Chlamtac, 1985): five markers track the q-quantile of a stream in
/// O(1) memory and O(1) per observation, without retaining samples.
/// The estimate converges to the true quantile for stationary streams;
/// exact answers stay available from `nearest_rank_quantiles` when the caller
/// retains the samples — the hybrid the serving runtime uses for live
/// (P²) vs end-of-run (exact) delay percentiles.
class P2Quantile {
 public:
  /// Tracks the q-quantile; requires q in (0, 1).
  explicit P2Quantile(double q);

  /// Resumes from a previously captured state; requires state.q in
  /// (0, 1). A resumed estimator produces the same estimates as the
  /// original would for any continuation of the stream.
  explicit P2Quantile(const P2State& state);

  /// Adds one observation.
  void add(double x) noexcept;

  /// Current estimate: exact (nearest-rank) while fewer than five
  /// observations have arrived, the P² marker value afterwards.
  /// 0 when empty.
  [[nodiscard]] double estimate() const noexcept;

  /// Number of observations so far.
  [[nodiscard]] std::int64_t count() const noexcept { return n_; }

  /// The full marker state, suitable for checkpointing.
  [[nodiscard]] P2State state() const noexcept;

 private:
  double q_;
  std::int64_t n_ = 0;
  double heights_[5] = {};    ///< marker heights (ascending)
  double positions_[5] = {};  ///< actual marker positions (1-based)
  double desired_[5] = {};    ///< desired marker positions
  double increments_[5] = {}; ///< desired-position increments per add
};

/// Start-up delay distribution summary: exact mean/max plus p50/p95/p99
/// percentiles (nearest-rank when computed exactly, P² estimates when
/// queried live mid-run). The unit is the producer's own (the engine
/// and the serving core use media lengths).
struct DelayProfile {
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

}  // namespace smerge::util

#endif  // SMERGE_UTIL_STATS_H
