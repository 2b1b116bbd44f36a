// Portable SIMD kernels for the ledger's integer scan loops.
//
// The ChannelLedger spends its query time in three loops over a
// bucket's ±1 delta stream: the summary recompute after a sort
// (running prefix sum + running max), the windowed-max scans of
// `max_over`, and the occupancy prefix sum. All three are integer
// arithmetic over a contiguous `int32_t` delta array, so a vector
// kernel is *bit-identical* to the scalar loop — there is no
// floating-point reassociation to worry about, only exact max() and
// exact sums. The drain path adds a fourth consumer: the posted-batch
// re-sort check reduces to "are these times strictly increasing",
// a lane-parallel compare.
//
// Kernels come in three flavours, dispatched once at load time:
//  * "avx2"   — x86-64 with AVX2 at runtime (function multi-versioned
//               via `__attribute__((target))`, 4×int64 lanes);
//  * "v128"   — the same source compiled at the build baseline through
//               GCC/Clang generic vector extensions (SSE2 on x86-64,
//               NEON on AArch64; the compiler splits the 256-bit
//               vectors into 128-bit halves);
//  * "scalar" — the original `bmax` loop, always compiled, used as the
//               test oracle and selected by `force_scalar(true)`.
//
// Bit-identity between flavours is enforced by tests (fuzz vs the
// scalar oracle) and by the checkpoint byte-identity suite — required,
// not assumed.
#ifndef SMERGE_UTIL_SIMD_H
#define SMERGE_UTIL_SIMD_H

#include <cstddef>
#include <cstdint>

namespace smerge::util::simd {

/// Branch-free max for the scan loops: with d = a - b, `d & ~(d >> 63)`
/// is d when d >= 0 and 0 otherwise. Exact for |a - b| < 2^63 (always
/// true for the ledger's bounded ±1 prefix sums). This is the scalar
/// oracle every vector kernel must match bit for bit.
[[nodiscard]] constexpr std::int64_t bmax(std::int64_t a,
                                          std::int64_t b) noexcept {
  const std::int64_t d = a - b;
  return b + (d & ~(d >> 63));
}

/// Result of a prefix scan continued from (running, best).
struct ScanResult {
  std::int64_t running = 0;  ///< running + sum(deltas[0..n))
  std::int64_t best = 0;     ///< max(best, max over inclusive prefixes)
};

/// Scalar oracle: for each delta, running += delta; best = bmax(best,
/// running). Exactly the ledger's historical summary loop.
[[nodiscard]] ScanResult prefix_scan_scalar(const std::int32_t* deltas,
                                            std::size_t n,
                                            std::int64_t running,
                                            std::int64_t best) noexcept;

/// Vector-dispatched prefix scan; bit-identical to the scalar oracle.
[[nodiscard]] ScanResult prefix_scan(const std::int32_t* deltas,
                                     std::size_t n, std::int64_t running,
                                     std::int64_t best) noexcept;

/// Scalar oracle for the plain delta sum (occupancy prefix).
[[nodiscard]] std::int64_t sum_scalar(const std::int32_t* deltas,
                                      std::size_t n) noexcept;

/// Vector-dispatched delta sum; bit-identical to the scalar oracle.
[[nodiscard]] std::int64_t sum(const std::int32_t* deltas,
                               std::size_t n) noexcept;

/// Scalar oracle: x[i] < x[i+1] for all i (vacuously true for n < 2).
[[nodiscard]] bool strictly_increasing_scalar(const double* x,
                                              std::size_t n) noexcept;

/// Vector-dispatched strict-increase check over the posted-batch time
/// keys: strictly increasing times mean the batch is already sorted by
/// (time, ticket) and no tie needs the ticket at all.
[[nodiscard]] bool strictly_increasing(const double* x,
                                       std::size_t n) noexcept;

/// Name of the kernel the dispatcher picked: "avx2", "v128" or
/// "scalar" (the latter also when `force_scalar(true)` is in effect).
[[nodiscard]] const char* active_kernel() noexcept;

/// int64 lanes per vector step of the active kernel (4, 2, or 1).
[[nodiscard]] unsigned lanes() noexcept;

/// Route every dispatched kernel to the scalar oracle (the
/// equivalence tests). Thread-safe toggle.
void force_scalar(bool on) noexcept;

/// Whether `force_scalar(true)` is currently in effect.
[[nodiscard]] bool scalar_forced() noexcept;

}  // namespace smerge::util::simd

#endif  // SMERGE_UTIL_SIMD_H
