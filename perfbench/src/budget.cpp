// budget: serial admit() calls against a channel budget in defer mode.
// A flash crowd over the catalogue, merged into global time order, is
// fed one arrival at a time to a slotted-batching core; only the burst
// outgrows the budget, so most admissions are immediate and the burst
// exercises the ledger's budget probes, defer retries and refusals.
//
// A deferral looks at most kMaxDeferSlots slots ahead, and in that time
// the budget frees about capacity * kDelay * kMaxDeferSlots channels
// (streams last one media length). Refusals need that to fall below the
// objects that need a new stream in the window; at a 0.01 slot it never
// does for 1000 objects, hence the 0.002 slot.
#include <algorithm>

#include "server/server_core.h"
#include "server/wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace smerge;

constexpr double kDelay = 0.002;
constexpr double kBurstMultiplier = 20.0;
constexpr std::int64_t kMaxDeferSlots = 16;
constexpr std::size_t kSampleEvery = 16;      ///< untraced admit() latency sampling stride
constexpr std::size_t kLedgerQueryEvery = 64;  ///< traced ledger query sampling stride

std::vector<Arrival> make_crowd(const BudgetConfig& config, std::uint64_t seed) {
  sim::WorkloadConfig workload =
      zipf_workload(config.objects, config.mean_gap, config.horizon, seed);
  workload.process = sim::ArrivalProcess::kFlashCrowd;
  workload.burst_start = config.burst_start;
  workload.burst_duration = config.burst_duration;
  workload.burst_multiplier = kBurstMultiplier;
  return merged_arrivals(workload);
}

server::ServerCoreConfig core_config(const BudgetConfig& config) {
  server::ServerCoreConfig core;
  core.objects = config.objects;
  core.delay = kDelay;
  core.horizon = config.horizon;
  core.serve = server::ServeMode::kSlottedBatching;
  core.channel_capacity = config.capacity;
  core.admission = server::AdmissionMode::kDefer;
  core.max_defer_slots = kMaxDeferSlots;
  return core;
}

/// Per-outcome admit() timings and sampled ledger query timings of a
/// traced pass.
struct AdmitTimers {
  CallTimer immediate, deferred, refused, peak_query, current_query;
};

struct Pass {
  double wall_s = 0.0;  ///< first admit -> take_snapshot returned
  double finish_s = 0.0;
  std::vector<double> sampled_us;  ///< untraced: every k-th admit()
  std::int64_t admitted = 0;
  std::int64_t refused = 0;
  std::int64_t deferred = 0;
  std::int64_t defer_probes = 0;
  std::int64_t ledger_peak = 0;
  bool guarantee_held = true;
  server::Snapshot snapshot;
  std::uint64_t digest = 0;
};

Pass admit_pass(const BudgetConfig& config, const std::vector<Arrival>& arrivals,
                Tracer& tracer, AdmitTimers* timers) {
  Pass out;
  server::ServerCore core(core_config(config));
  out.sampled_us.reserve(arrivals.size() / kSampleEvery + 1);
  double excluded_s = 0.0;
  const Clock::time_point start = Clock::now();
  const int pass_span = tracer.open("core.admit_loop");
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    const bool timed = timers != nullptr || i % kSampleEvery == 0;
    Clock::time_point t0;
    if (timed) t0 = Clock::now();
    const server::Ticket ticket = core.admit(a.object, a.time);
    if (timed) {
      const Clock::time_point t1 = Clock::now();
      if (timers == nullptr) {
        out.sampled_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      } else if (!ticket.admitted) {
        timers->refused.record(t0, t1);
      } else if (ticket.deferred_slots > 0) {
        timers->deferred.record(t0, t1);
      } else {
        timers->immediate.record(t0, t1);
      }
    }
    if (ticket.admitted) {
      ++out.admitted;
      out.defer_probes += ticket.deferred_slots;
      if (ticket.deferred_slots > 0) ++out.deferred;
      if (server::violates_guarantee(ticket.guarantee_wait, kDelay)) {
        out.guarantee_held = false;
      }
    } else {
      ++out.refused;
      out.defer_probes += kMaxDeferSlots;  // every later slot was probed
    }
    if (timers != nullptr && i % kLedgerQueryEvery == 0) {
      const Clock::time_point q0 = Clock::now();
      (void)core.peak_channels();
      const Clock::time_point q1 = Clock::now();
      (void)core.current_channels(a.time);
      const Clock::time_point q2 = Clock::now();
      timers->peak_query.record(q0, q1);
      timers->current_query.record(q1, q2);
      excluded_s += seconds_between(q0, q2);
    }
  }
  tracer.close(pass_span);
  int span = tracer.open("core.finish");
  core.finish();
  out.finish_s = tracer.close(span);
  out.ledger_peak = core.peak_channels();
  span = tracer.open("core.take_snapshot");
  out.snapshot = core.take_snapshot();
  tracer.close(span);
  out.wall_s = seconds_between(start, Clock::now()) - excluded_s;
  out.digest = server::snapshot_digest(out.snapshot);
  return out;
}

void check_pass(RunResult& result, const BudgetConfig& config, const Pass& p,
                std::int64_t arrivals, std::uint64_t digest) {
  result.check(p.ledger_peak <= config.capacity && p.snapshot.peak_concurrency <= config.capacity,
               "budget: peak channels <= budget");
  result.check(p.guarantee_held && p.snapshot.guarantee_violations == 0,
               "budget: every admitted guarantee_wait <= delay");
  // The core's own counters must account for every ticket: it counted
  // each arrival, and its refusals are exactly the refused tickets.
  result.check(p.snapshot.total_arrivals == arrivals && p.snapshot.rejected == p.refused,
               "budget: admitted + refused == arrivals, by the core's counts");
  result.check(p.snapshot.deferrals == p.deferred,
               "budget: core deferrals == deferred tickets");
  result.check(p.deferred > 0 && p.refused > 0,
               "budget: the burst outgrows the budget (some deferred, some refused)");
  result.check(p.digest == digest, "budget: every pass lands on the same snapshot digest");
}

}  // namespace

RunResult run_budget(const BudgetConfig& config, const RunOptions& options,
                     Tracer& tracer) {
  RunResult result;
  // Before the trace is made, so every run times its constructions from
  // the same fresh heap.
  const double setup_s = median_setup_s([&] {
    server::ServerCore core(core_config(config));
  });
  const std::vector<Arrival> arrivals = make_crowd(config, options.seed);
  const auto n = static_cast<std::int64_t>(arrivals.size());
  if (!options.trace) {
    std::vector<Pass> passes;
    double rss_mb = 0.0;  // after the first pass: later passes reuse its memory
    const Clock::time_point start = Clock::now();
    do {
      passes.push_back(admit_pass(config, arrivals, tracer, nullptr));
      if (passes.size() == 1) rss_mb = self_peak_rss_mb();
    } while (seconds_between(start, Clock::now()) < options.seconds);
    std::vector<double> rate, latency;
    for (const Pass& p : passes) {
      check_pass(result, config, p, n, passes.front().digest);
      rate.push_back(static_cast<double>(n) / p.wall_s);
      latency.insert(latency.end(), p.sampled_us.begin(), p.sampled_us.end());
    }
    result.attempted = static_cast<std::uint64_t>(n) * passes.size();
    const Pass& first = passes.front();
    const Percentiles lat = percentiles(latency);
    result.add("setup_s", setup_s, "s", kSetupSamples);
    result.add("arrivals_per_s", median(rate), "1/s", rate.size());
    result.add("arrivals_per_s.min", *std::min_element(rate.begin(), rate.end()), "1/s", 1);
    result.add("arrivals_per_s.max", *std::max_element(rate.begin(), rate.end()), "1/s", 1);
    result.add("ticket_p50_us", lat.p50, "us", lat.samples);
    result.add("ticket_p99_us", lat.p99, "us", lat.samples);
    result.add("peak_rss_mb", rss_mb, "MB", 1);
    result.add("mean_channels", first.snapshot.streams_served / config.horizon, "channels", 1);
    result.add("wait_p99_media", first.snapshot.wait.p99, "media",
               static_cast<std::size_t>(first.admitted));
    result.add("refused_ratio", static_cast<double>(first.refused) / static_cast<double>(n),
               "ratio", static_cast<std::size_t>(n));
    return result;
  }

  Tracer off(false);
  const Pass plain = admit_pass(config, arrivals, off, nullptr);
  AdmitTimers timers;
  tracer.next_run();
  const Pass traced = admit_pass(config, arrivals, tracer, &timers);
  check_pass(result, config, plain, n, plain.digest);
  check_pass(result, config, traced, n, plain.digest);
  result.attempted = static_cast<std::uint64_t>(n) * 2;

  const auto add_split = [&](const std::string& name, CallTimer& timer) {
    const Percentiles p = percentiles(timer.ns);
    result.add(name + ".p50", p.p50, "ns", p.samples);
    result.add(name + ".p99", p.p99, "ns", p.samples);
  };
  add_split("core.admit_ns.immediate", timers.immediate);
  add_split("core.admit_ns.deferred", timers.deferred);
  add_split("core.admit_ns.refused", timers.refused);
  result.add("core.defer_probes_per_admit",
             static_cast<double>(traced.defer_probes) / static_cast<double>(n), "ratio",
             static_cast<std::size_t>(n));
  result.add("core.admit_useful_ratio",
             static_cast<double>(traced.admitted) /
                 static_cast<double>(n + traced.defer_probes),
             "ratio", static_cast<std::size_t>(n));
  result.add("core.refused_ratio", static_cast<double>(traced.refused) / static_cast<double>(n),
             "ratio", static_cast<std::size_t>(n));
  result.add("ledger.peak_query_ns", median(timers.peak_query.ns), "ns",
             timers.peak_query.ns.size());
  result.add("ledger.current_query_ns", median(timers.current_query.ns), "ns",
             timers.current_query.ns.size());
  result.add("core.finish_ms", traced.finish_s * 1e3, "ms", 1);
  result.add("core.arrivals", static_cast<double>(n), "count", 1);
  result.add("core.streams", static_cast<double>(traced.snapshot.total_streams), "count", 1);
  result.add("ledger.peak_channels", static_cast<double>(traced.ledger_peak), "count", 1);
  result.add("trace.overhead_ratio", traced.wall_s / plain.wall_s, "ratio", 1);
  return result;
}

}  // namespace perfbench
