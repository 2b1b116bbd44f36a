#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "util/thread_pool.h"

namespace smerge::util {

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept {
  return std::sqrt(variance());
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

namespace {

/// Index of the nearest-rank q-quantile among n > 0 sorted values:
/// rank ceil(q * n), floored at the first value.
std::size_t nearest_rank_index(double q, std::size_t n) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return rank == 0 ? 0 : rank - 1;
}

void check_quantiles(std::span<const double> qs) {
  double prev = 0.0;
  for (const double q : qs) {
    if (!(q >= 0.0) || q > 1.0) {
      throw std::invalid_argument("nearest_rank_quantiles: q must lie in [0, 1]");
    }
    if (q < prev) {
      throw std::invalid_argument("nearest_rank_quantiles: qs must be ascending");
    }
    prev = q;
  }
}

/// Writes the values at ascending indices `ks` of `values` (as if
/// sorted) to `out`: one nth_element per distinct index, each on the
/// suffix the previous one left, since everything before it is already
/// no greater than the value just selected.
void select_indices(std::vector<double>& values, std::span<const std::size_t> ks,
                    double* out) {
  std::size_t from = 0;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const std::size_t k = ks[i];
    if (k >= from) {
      const auto begin = values.begin();
      std::nth_element(begin + static_cast<std::ptrdiff_t>(from),
                       begin + static_cast<std::ptrdiff_t>(k), values.end());
      from = k + 1;
    }
    out[i] = values[k];
  }
}

}  // namespace

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (!(q >= 0.0) || q > 1.0) {
    throw std::invalid_argument("quantile_sorted: q must lie in [0, 1]");
  }
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank_index(q, sorted.size())];
}

std::vector<double> nearest_rank_quantiles(std::vector<double>& values,
                                           std::span<const double> qs) {
  check_quantiles(qs);
  std::vector<double> out(qs.size(), 0.0);
  if (values.empty()) return out;
  std::vector<std::size_t> ks;
  ks.reserve(qs.size());
  for (const double q : qs) ks.push_back(nearest_rank_index(q, values.size()));
  select_indices(values, ks, out.data());
  return out;
}

std::vector<double> nearest_rank_quantiles(
    std::span<const std::span<const double>> sources, std::span<const double> qs,
    ThreadPool& pool, unsigned threads) {
  check_quantiles(qs);
  std::vector<double> out(qs.size(), 0.0);
  // Each task covers a contiguous run of sources; a few per thread keep
  // uneven sources balanced.
  const std::size_t tasks = std::clamp<std::size_t>(
      std::size_t{threads} * 4, 1, std::max<std::size_t>(sources.size(), 1));
  // Visits every value, task by task; `visit(t, v)` may touch only
  // task t's scratch.
  const auto fan_out = [&](auto&& visit) {
    pool.run(0, static_cast<std::int64_t>(tasks), 1, std::max(threads, 1u),
             [&](std::int64_t task) {
               const auto t = static_cast<std::size_t>(task);
               for (std::size_t s = sources.size() * t / tasks;
                    s < sources.size() * (t + 1) / tasks; ++s) {
                 for (const double v : sources[s]) visit(t, v);
               }
             });
  };
  // Pass 1: count and range.
  struct Range {
    std::size_t n = 0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
  };
  std::vector<Range> ranges(tasks);
  fan_out([&](std::size_t t, double v) {
    Range& r = ranges[t];
    ++r.n;
    r.lo = std::min(r.lo, v);
    r.hi = std::max(r.hi, v);
  });
  Range all;
  for (const Range& r : ranges) {
    all.n += r.n;
    all.lo = std::min(all.lo, r.lo);
    all.hi = std::max(all.hi, r.hi);
  }
  if (all.n == 0) return out;
  if (!(all.hi > all.lo)) {
    std::fill(out.begin(), out.end(), all.lo);  // one distinct value
    return out;
  }
  if (!std::isfinite(all.hi - all.lo)) {  // too wide to bin: gather everything
    std::vector<double> values;
    values.reserve(all.n);
    for (const auto source : sources) {
      values.insert(values.end(), source.begin(), source.end());
    }
    return nearest_rank_quantiles(values, qs);
  }

  // Pass 2: a histogram over equal-width value bins. bin_of is monotone
  // in v, so every value in a lower bin is <= every value in a higher
  // one, and each rank's value lies in the bin where the running count
  // passes it — exactly, whatever the rounding inside bin_of.
  constexpr std::size_t kBins = 4096;
  const double scale = static_cast<double>(kBins) / (all.hi - all.lo);
  const auto bin_of = [&](double v) {
    const double x = (v - all.lo) * scale;
    return x >= static_cast<double>(kBins - 1) ? kBins - 1 : static_cast<std::size_t>(x);
  };
  std::vector<std::size_t> hist(tasks * kBins, 0);
  fan_out([&](std::size_t t, double v) { ++hist[t * kBins + bin_of(v)]; });
  std::vector<std::size_t> total(kBins, 0);
  for (std::size_t t = 0; t < tasks; ++t) {
    for (std::size_t b = 0; b < kBins; ++b) total[b] += hist[t * kBins + b];
  }

  // Each quantile's bin and its index inside that bin. Ascending qs
  // walk the bins once, so the qs sharing a bin are contiguous.
  std::vector<std::size_t> q_bin(qs.size());
  std::vector<std::size_t> local(qs.size());
  std::vector<std::size_t> targets;  // distinct q_bin values, ascending
  std::size_t bin = 0;
  std::size_t below = 0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const std::size_t k = nearest_rank_index(qs[i], all.n);
    while (k >= below + total[bin]) below += total[bin++];
    q_bin[i] = bin;
    local[i] = k - below;
    if (targets.empty() || targets.back() != bin) targets.push_back(bin);
  }

  // Pass 3: gather only the target bins' values, per task, then select
  // inside each bin.
  std::vector<std::size_t> slot(kBins, 0);  // target index + 1, or 0
  for (std::size_t j = 0; j < targets.size(); ++j) slot[targets[j]] = j + 1;
  std::vector<std::vector<double>> gathered(tasks * targets.size());
  for (std::size_t t = 0; t < tasks; ++t) {
    for (std::size_t j = 0; j < targets.size(); ++j) {
      gathered[t * targets.size() + j].reserve(hist[t * kBins + targets[j]]);
    }
  }
  fan_out([&](std::size_t t, double v) {
    const std::size_t j = slot[bin_of(v)];
    if (j != 0) gathered[t * targets.size() + j - 1].push_back(v);
  });
  std::size_t first = 0;
  for (std::size_t j = 0; j < targets.size(); ++j) {
    std::vector<double> values;
    values.reserve(total[targets[j]]);
    for (std::size_t t = 0; t < tasks; ++t) {
      const auto& part = gathered[t * targets.size() + j];
      values.insert(values.end(), part.begin(), part.end());
    }
    std::size_t last = first;
    while (last < qs.size() && q_bin[last] == targets[j]) ++last;
    select_indices(values, std::span(local).subspan(first, last - first),
                   out.data() + first);
    first = last;
  }
  return out;
}

}  // namespace smerge::util
