// A fixed-size, log-bucketed histogram of nonnegative samples (the
// serving core's start-up waits), in the HdrHistogram / DDSketch style:
// integer counts whose merge is integer addition, so the result of any
// fold is independent of its order and partition.
#ifndef SMERGE_UTIL_WAIT_HISTOGRAM_H
#define SMERGE_UTIL_WAIT_HISTOGRAM_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "util/snapshot.h"
#include "util/stats.h"

namespace smerge::util {

/// Counts of nonnegative samples in buckets that split each octave
/// [2^e, 2^(e+1)) into 64 equal parts, for e in [-40, 20), plus a zero
/// bucket for every sample below 2^-40. A sample's bucket comes from
/// its IEEE-754 exponent and the top 6 mantissa bits (one shift and
/// one subtraction), with no `log` call.
///
/// Error bound: a quantile estimate is the midpoint of the bucket that
/// holds the exact nearest-rank sample x (`quantile_sorted`'s
/// convention), capped at the exact maximum, so for x in
/// [kMinValue, kMaxValue) it lies within kRelativeError * x of x
/// (2^-7, about 0.78%). Below kMinValue the estimate is 0. Samples at
/// or above kMaxValue count in the top bucket, so their estimates carry
/// no bound.
///
/// The count, maximum and sum are exact too; the sum is kept in fixed
/// point with 64 fractional bits, so it is also integer addition (each
/// sample is truncated to a multiple of 2^-64; samples of 2^63 and
/// above add 2^63). Merging, then, is exact: any partition of a stream
/// into histograms, merged in any order, yields the identical counts,
/// estimates and mean.
class WaitHistogram {
 public:
  static constexpr int kSubBucketBits = 6;
  static constexpr int kMinExponent = -40;
  static constexpr int kMaxExponent = 20;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExponent - kMinExponent) << kSubBucketBits;
  /// Smallest sample counted outside the zero bucket (2^-40).
  static constexpr double kMinValue = 0x1p-40;
  /// Samples from here up share the top bucket (2^20).
  static constexpr double kMaxValue = 0x1p20;
  /// Relative error of a quantile estimate in [kMinValue, kMaxValue).
  static constexpr double kRelativeError = 0x1p-7;

  /// Records one sample; must be a nonnegative number (negative values
  /// count as zero).
  void add(double x) noexcept {
    ++total_;
    sum_ += to_fixed(x);
    if (x > max_) max_ = x;
    if (!(x >= kMinValue)) {
      ++zeros_;
      return;
    }
    const std::size_t i = bucket_of(x);
    ++counts_[i];
    if (i < lo_) lo_ = i;
    if (i > hi_) hi_ = i;
  }

  /// Adds every count of `other` into this histogram. O(other's
  /// occupied bucket range).
  void merge(const WaitHistogram& other) noexcept;

  /// Empties the histogram. O(occupied bucket range).
  void clear() noexcept;

  /// Samples recorded so far.
  [[nodiscard]] std::int64_t count() const noexcept {
    return static_cast<std::int64_t>(total_);
  }
  /// Mean of the samples (the exact fixed-point sum, rounded once, over
  /// the count); 0 when empty.
  [[nodiscard]] double mean() const noexcept;
  /// Largest sample; 0 when empty.
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Nearest-rank estimates of the ascending quantiles `qs` (each in
  /// [0, 1]) into `out`, all in one pass down from the top occupied
  /// bucket: O(occupied bucket range). Zeros when empty.
  void quantiles(std::span<const double> qs, std::span<double> out) const;

  /// Mean, p50, p95, p99 and max in one profile.
  [[nodiscard]] DelayProfile profile() const;

  /// Writes the canonical content: the zero count, the occupied bucket
  /// range and its counts, the sum and the maximum. Equal histograms
  /// write equal bytes.
  void save(SnapshotWriter& w) const;
  /// Reads what `save` wrote; throws SnapshotError on a malformed
  /// record.
  [[nodiscard]] static WaitHistogram load(SnapshotReader& r);

  friend bool operator==(const WaitHistogram&, const WaitHistogram&) = default;

 private:
  using Fixed = unsigned __int128;

  /// Bucket key of 2^kMinExponent: its biased exponent and zero
  /// sub-bucket bits, as `bits >> (52 - kSubBucketBits)` yields them.
  static constexpr std::uint64_t kFirstKey =
      static_cast<std::uint64_t>(1023 + kMinExponent) << kSubBucketBits;

  /// Bucket of a sample in [kMinValue, inf); the top bucket absorbs
  /// everything from kMaxValue up.
  [[nodiscard]] static std::size_t bucket_of(double x) noexcept {
    const std::uint64_t key = std::bit_cast<std::uint64_t>(x) >> (52 - kSubBucketBits);
    const std::uint64_t i = key - kFirstKey;
    return i < kBuckets ? static_cast<std::size_t>(i) : kBuckets - 1;
  }

  /// The sample in units of 2^-64, truncated; see the class comment.
  [[nodiscard]] static Fixed to_fixed(double x) noexcept {
    if (!(x > 0.0)) return 0;
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    const int biased = static_cast<int>(bits >> 52);
    if (biased == 0) return 0;                       // subnormal: far below 2^-64
    if (biased > 1023 + 62) return Fixed{1} << 127;  // 2^63 and above
    constexpr std::uint64_t kImplicit = std::uint64_t{1} << 52;
    const std::uint64_t mantissa = (bits & (kImplicit - 1)) | kImplicit;
    // x = mantissa * 2^(biased - 1075), so x * 2^64 shifts by this.
    const int shift = biased - 1011;
    if (shift >= 0) return Fixed{mantissa} << shift;
    return shift > -53 ? Fixed{mantissa >> -shift} : Fixed{0};
  }
  /// The estimate for bucket `i`: its midpoint, capped at the maximum.
  [[nodiscard]] double estimate(std::size_t i) const noexcept;

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t zeros_ = 0;
  std::uint64_t total_ = 0;
  Fixed sum_ = 0;
  double max_ = 0.0;
  std::size_t lo_ = kBuckets;  ///< lowest occupied bucket; kBuckets if none
  std::size_t hi_ = 0;         ///< highest occupied bucket
};

static_assert(sizeof(WaitHistogram) <= 32 * 1024, "a wait histogram stays within 32 KB");

}  // namespace smerge::util

#endif  // SMERGE_UTIL_WAIT_HISTOGRAM_H
