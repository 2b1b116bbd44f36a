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

/// Start-up delay distribution summary: exact mean/max plus p50/p95/p99
/// percentiles (nearest-rank when computed exactly, `WaitHistogram`
/// estimates when queried live mid-run). The unit is the producer's own
/// (the engine and the serving core use media lengths).
struct DelayProfile {
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

}  // namespace smerge::util

#endif  // SMERGE_UTIL_STATS_H
