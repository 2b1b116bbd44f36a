// The three workloads of the serving-stack benchmark. Each takes its
// inputs from the seed alone; the configs hold only the sizes the
// self-test shrinks (the benchmark uses the defaults).
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "sim/workload.h"

namespace perfbench {

/// Common run parameters from the command line.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time budget
  bool trace = false;     ///< traced run: per-layer metrics only
};

// --- replay: batch trace replay through ServerCore -------------------------

struct ReplayConfig {
  std::int64_t objects = 1000;
  double mean_gap = 9.8e-6;  ///< ~10.2M arrivals over the horizon
  double horizon = 100.0;
};

RunResult run_replay(const ReplayConfig& config, const RunOptions& options,
                     Tracer& tracer);

// --- budget: serial admission against a channel budget ---------------------

struct BudgetConfig {
  std::int64_t objects = 1000;
  double mean_gap = 3.2e-5;
  double horizon = 40.0;
  double burst_start = 16.0;  ///< the x20 flash crowd's window
  double burst_duration = 2.0;
  std::int64_t capacity = 26000;
};

RunResult run_budget(const BudgetConfig& config, const RunOptions& options,
                     Tracer& tracer);

// --- generated traces and the open-loop generator behind `wire` -------------

/// A Poisson workload over `objects` Zipf(1.0)-weighted objects.
[[nodiscard]] smerge::sim::WorkloadConfig zipf_workload(std::int64_t objects,
                                                        double mean_gap, double horizon,
                                                        std::uint64_t seed);

/// Every object's arrivals under `workload` (index = object id), each
/// from its own substream — a pure function of the config.
[[nodiscard]] std::vector<std::vector<double>> per_object_arrivals(
    const smerge::sim::WorkloadConfig& workload);

/// One arrival of a merged trace.
struct Arrival {
  std::int64_t object = 0;
  double time = 0.0;  ///< trace time, media lengths
};

/// The same arrivals merged into global time order (ties by object).
[[nodiscard]] std::vector<Arrival> merged_arrivals(
    const smerge::sim::WorkloadConfig& workload);

/// A rung's send schedule: the ADMIT frames pre-encoded back to back
/// (request id = index + 1) and each one's wall-clock due time.
struct OpenLoopPlan {
  std::vector<std::uint8_t> bytes;
  std::vector<double> due_s;  ///< seconds after the rung starts
  double rate = 0.0;          ///< offered admissions/s
};

/// Maps trace time onto a `duration_s` wall-clock window, so the send
/// schedule is the trace's own Poisson process, sped up.
OpenLoopPlan plan_open_loop(const std::vector<Arrival>& trace, double horizon,
                            double duration_s);

struct OpenLoopOptions {
  double grace_s = 5.0;           ///< ticket deadline after the last send
  double p99_limit_us = 20000.0;  ///< sets the runaway-backlog stop
  int send_cpu = -1;              ///< pin the send thread (-1 = float)
  int recv_cpu = -1;              ///< pin the receive thread (-1 = float)
};

/// What one open-loop rung measured on the client side.
struct LoadgenResult {
  std::uint64_t sent = 0;              ///< admissions actually sent
  std::uint64_t ticketed = 0;
  std::uint64_t failed = 0;            ///< unticketed at the deadline
  std::uint64_t bad_tickets = 0;       ///< refused or unknown request ids
  std::vector<double> latency_us;      ///< due -> TICKET decode, timed part
  std::vector<double> window_p99_us;   ///< nearest-rank p99 of each window
  std::vector<double> late_us;         ///< send start - due, every admit
  std::uint64_t outstanding_max = 0;
  bool aborted = false;                ///< stopped early on a runaway backlog
};

/// Drives one open-loop rung over the connected socket `fd`: a send
/// thread and a receive thread, ended by the ticket deadline.
LoadgenResult run_open_loop(int fd, const OpenLoopPlan& plan,
                            const OpenLoopOptions& options);

/// A loopback rung's ticket latency: nearest rank over every timed
/// ticket, and the median over 20 ms windows of each window's p99.
struct RungLatency {
  Percentiles all;
  double window_p99_us = 0.0;
  std::size_t windows = 0;
};
[[nodiscard]] RungLatency rung_latency(LoadgenResult& result);

// --- wire: the server's wire path ------------------------------------------

/// `server_path` is the vod_server executable the traced run spawns.
RunResult run_wire(const std::string& server_path, const RunOptions& options,
                   Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
