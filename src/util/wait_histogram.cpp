#include "util/wait_histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace smerge::util {

namespace {

/// The nearest rank ceil(q * n) of `quantile_sorted`, floored at 1.
std::uint64_t nearest_rank(double q, std::uint64_t n) {
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::uint64_t>(rank, 1, n);
}

}  // namespace

void WaitHistogram::merge(const WaitHistogram& other) noexcept {
  for (std::size_t i = other.lo_; i <= other.hi_; ++i) {
    counts_[i] += other.counts_[i];
  }
  lo_ = std::min(lo_, other.lo_);
  hi_ = std::max(hi_, other.hi_);
  zeros_ += other.zeros_;
  total_ += other.total_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void WaitHistogram::clear() noexcept {
  for (std::size_t i = lo_; i <= hi_; ++i) counts_[i] = 0;
  zeros_ = 0;
  total_ = 0;
  sum_ = 0;
  max_ = 0.0;
  lo_ = kBuckets;
  hi_ = 0;
}

double WaitHistogram::mean() const noexcept {
  if (total_ == 0) return 0.0;
  return static_cast<double>(sum_) * 0x1p-64 / static_cast<double>(total_);
}

double WaitHistogram::estimate(std::size_t i) const noexcept {
  constexpr int kShift = 52 - kSubBucketBits;
  const double lower = std::bit_cast<double>((kFirstKey + i) << kShift);
  const double upper = std::bit_cast<double>((kFirstKey + i + 1) << kShift);
  // Both bounds share an exponent (or the upper one is the next power
  // of two), so the midpoint is exact.
  return std::min(lower + (upper - lower) / 2.0, max_);
}

void WaitHistogram::quantiles(std::span<const double> qs, std::span<double> out) const {
  if (out.size() != qs.size()) {
    throw std::invalid_argument("WaitHistogram::quantiles: one output per quantile");
  }
  double prev = 0.0;
  for (const double q : qs) {
    if (!(q >= prev) || q > 1.0) {
      throw std::invalid_argument(
          "WaitHistogram::quantiles: qs must be ascending, each in [0, 1]");
    }
    prev = q;
  }
  std::fill(out.begin(), out.end(), 0.0);
  if (total_ == 0) return;
  // Buckets [next, hi_] hold the `passed` largest samples; the highest
  // quantile is found first, and each lower one resumes the walk.
  std::size_t next = lo_ <= hi_ ? hi_ + 1 : 0;
  std::uint64_t passed = 0;
  for (std::size_t k = qs.size(); k-- > 0;) {
    const std::uint64_t from_top = total_ - nearest_rank(qs[k], total_) + 1;
    while (next > lo_ && passed + counts_[next - 1] < from_top) {
      passed += counts_[--next];
    }
    // Past the lowest bucket the rank lies in the zero bucket.
    if (next > lo_) out[k] = estimate(next - 1);
  }
}

DelayProfile WaitHistogram::profile() const {
  DelayProfile profile;
  if (total_ == 0) return profile;
  static constexpr double kRanks[] = {0.50, 0.95, 0.99};
  double q[3];
  quantiles(kRanks, q);
  profile.mean = mean();
  profile.p50 = q[0];
  profile.p95 = q[1];
  profile.p99 = q[2];
  profile.max = max_;
  return profile;
}

void WaitHistogram::save(SnapshotWriter& w) const {
  w.u64(zeros_);
  if (lo_ <= hi_) {
    w.u64(lo_);
    w.u64(hi_ - lo_ + 1);
    for (std::size_t i = lo_; i <= hi_; ++i) w.u64(counts_[i]);
  } else {
    w.u64(0);
    w.u64(0);
  }
  w.u64(static_cast<std::uint64_t>(sum_ >> 64));
  w.u64(static_cast<std::uint64_t>(sum_));
  w.f64(max_);
}

WaitHistogram WaitHistogram::load(SnapshotReader& r) {
  WaitHistogram h;
  h.zeros_ = r.u64();
  h.total_ = h.zeros_;
  const std::uint64_t first = r.u64();
  const std::uint64_t n = r.u64();
  if (n == 0) {
    if (first != 0) throw SnapshotError("wait histogram: empty range with an offset");
  } else {
    if (first >= kBuckets || n > kBuckets - first || n > r.remaining() / 8) {
      throw SnapshotError("wait histogram: bucket range out of bounds");
    }
    h.lo_ = static_cast<std::size_t>(first);
    h.hi_ = static_cast<std::size_t>(first + n - 1);
    for (std::size_t i = h.lo_; i <= h.hi_; ++i) {
      h.counts_[i] = r.u64();
      h.total_ += h.counts_[i];
    }
    if (h.counts_[h.lo_] == 0 || h.counts_[h.hi_] == 0) {
      throw SnapshotError("wait histogram: bucket range edges are empty");
    }
  }
  const std::uint64_t sum_high = r.u64();
  h.sum_ = (Fixed{sum_high} << 64) | r.u64();
  h.max_ = r.f64();
  if (!(h.max_ >= 0.0)) throw SnapshotError("wait histogram: bad maximum");
  return h;
}

}  // namespace smerge::util
