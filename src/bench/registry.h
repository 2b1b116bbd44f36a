// The benchmark registry: one place where every figure/table/theorem
// bench of the paper registers a name, a description, the series it
// emits, and a parameterized run function. The `smerge_bench` driver
// (src/bench/runner.h) fronts the registry with --list/--only/--json/
// --threads/--quick, replacing the 21 copy-pasted standalone mains the
// repository started with.
#ifndef SMERGE_BENCH_REGISTRY_H
#define SMERGE_BENCH_REGISTRY_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/table.h"

namespace smerge::bench {

/// The master RNG seed benches default to when the CLI does not
/// override it (kept equal to the historical sim_* seed so the
/// committed BENCH_seed.json baseline stays reproducible).
inline constexpr std::uint64_t kDefaultBenchSeed = 20260728;

/// Runtime knobs every bench receives.
struct BenchContext {
  /// Shrink sweeps/horizons so the bench finishes in well under a second
  /// (used by --quick and the test-suite smoke run). Series must still
  /// contain at least two points.
  bool quick = false;
  /// Worker threads for util::parallel_for fan-out (>= 1).
  unsigned threads = 1;
  /// Master seed for the stochastic (sim_*) benches, threaded into
  /// `util::SplitMix64` via the workload configs so whole runs are
  /// reproducible from the CLI (--seed). Recorded in the JSON header.
  std::uint64_t seed = kDefaultBenchSeed;
};

/// A named numeric trajectory (one curve of a figure, one column of a
/// table). Series of the same bench need not share a length.
struct BenchSeries {
  std::string name;
  std::vector<double> values;
};

/// What a bench produces: console tables plus machine-readable data.
struct BenchResult {
  std::vector<util::TextTable> tables;  ///< printed in order
  /// JSON `series` object. A deque so references returned by
  /// `add_series()` stay valid while later series are added.
  std::deque<BenchSeries> series;
  std::vector<std::pair<std::string, double>> metrics;  ///< JSON scalars
  std::vector<std::string> notes;       ///< console trailer lines
  bool ok = true;  ///< paper-invariant checks passed (drives exit code)

  /// Appends a series; returns a reference for incremental fills.
  BenchSeries& add_series(std::string name);
  /// Appends a scalar metric.
  void add_metric(std::string name, double value);
};

/// A registered bench.
struct BenchSpec {
  std::string name;         ///< CLI identifier, e.g. "fig01_delay_sweep"
  std::string description;  ///< one line for --list
  std::vector<std::string> series;  ///< names the result promises to emit
  std::function<BenchResult(const BenchContext&)> run;
};

/// Name-ordered registry of all benches linked into the binary.
class BenchRegistry {
 public:
  /// The process-wide registry (benches self-register at static init).
  static BenchRegistry& instance();

  /// Registers a spec. Returns true; aborts on duplicate or empty names
  /// (a programming error in a bench translation unit).
  bool add(BenchSpec spec);

  /// All specs in name order.
  [[nodiscard]] std::vector<const BenchSpec*> all() const;

  /// Looks up one bench; nullptr when absent.
  [[nodiscard]] const BenchSpec* find(const std::string& name) const;

  [[nodiscard]] std::size_t size() const noexcept { return specs_.size(); }

 private:
  std::map<std::string, BenchSpec> specs_;
};

}  // namespace smerge::bench

/// Defines and registers a bench in one go:
///
///   SMERGE_BENCH(fig01_delay_sweep, "Fig. 1 — ...", "delay_pct", "ratio") {
///     smerge::bench::BenchResult result;
///     ...
///     return result;
///   }
///
/// The variadic tail lists the series names the bench emits.
#define SMERGE_BENCH(ident, desc, ...)                                     \
  static ::smerge::bench::BenchResult smerge_bench_run_##ident(            \
      const ::smerge::bench::BenchContext& ctx);                           \
  [[maybe_unused]] static const bool smerge_bench_reg_##ident =            \
      ::smerge::bench::BenchRegistry::instance().add(                      \
          {#ident, desc, {__VA_ARGS__}, &smerge_bench_run_##ident});       \
  static ::smerge::bench::BenchResult smerge_bench_run_##ident(            \
      [[maybe_unused]] const ::smerge::bench::BenchContext& ctx)

#endif  // SMERGE_BENCH_REGISTRY_H
