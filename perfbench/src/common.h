// Shared pieces of the serving-stack benchmark: clocks, nearest-rank
// percentiles, the metric report, and the span tracer the traced runs
// record around every call the benchmark makes into a layer.
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile of an ascending sample: the value at rank
/// ceil(q * n), clamped to [1, n]. 0 for an empty sample.
[[nodiscard]] double nearest_rank(const std::vector<double>& sorted, double q);

/// p50/p99 of a sample by the nearest-rank rule, with the sample count
/// they rest on. Sorts `samples` in place.
struct Percentiles {
  std::size_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};
[[nodiscard]] Percentiles percentiles(std::vector<double>& samples);

/// Median of a sample (nearest-rank p50). Sorts in place.
[[nodiscard]] double median(std::vector<double> samples);

/// Constructions of the system under test a run times for `setup_s`.
/// Each takes milliseconds at most, so many are cheap, and their median
/// steadies a figure one construction would leave to VM noise.
constexpr int kSetupSamples = 101;

/// Median wall time, in seconds, of `kSetupSamples` calls to `build`,
/// each of which constructs the system under test and drops it: the
/// set-up a run pays before its first admission.
template <typename Build>
[[nodiscard]] double median_setup_s(Build&& build) {
  std::vector<double> times;
  for (int i = 0; i < kSetupSamples; ++i) {
    const Clock::time_point start = Clock::now();
    build();
    times.push_back(seconds_between(start, Clock::now()));
  }
  return median(std::move(times));
}

/// Peak resident set of this process, in MB (getrusage ru_maxrss).
[[nodiscard]] double self_peak_rss_mb();

/// One reported number. `samples` is what the value rests on: the
/// number of timed events behind a percentile or median, 1 for a count.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What a workload run hands back to main: its metrics, the operation
/// tally behind `attempted`/`failed`, and every failed correctness
/// check (empty = correct).
struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;

  void add(std::string name, double value, std::string unit,
           std::size_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// In-memory span recorder. A span is one call into a layer: its name,
/// start and end (ns since the tracer was built), the span that was
/// open around it, and the run it belongs to. A disabled tracer records
/// nothing, so untraced runs pay one branch per call site. Single
/// threaded: only the benchmark's driving thread opens spans.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Starts a new run id; spans opened afterwards carry it.
  void next_run() noexcept { ++run_; }

  /// Opens a span and returns its id (-1 when disabled).
  int open(const char* name);
  /// Closes span `id` (spans close innermost first); returns its
  /// duration in seconds (0 when disabled).
  double close(int id);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), id_(tracer.open(name)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Writes every span as one JSON object per line. Returns false when
  /// the file cannot be written.
  bool write(const std::string& path) const;

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    int run;
  };

  bool enabled_;
  int run_ = 0;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span ids
};

/// Per-call durations of one traced call site: `record` takes the two
/// clock reads around the call.
struct CallTimer {
  std::vector<double> ns;
  double total_ns = 0.0;

  void record(Clock::time_point a, Clock::time_point b) {
    const double d = std::chrono::duration<double, std::nano>(b - a).count();
    ns.push_back(d);
    total_ns += d;
  }
  [[nodiscard]] double mean_ns() const {
    return ns.empty() ? 0.0 : total_ns / static_cast<double>(ns.size());
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H
