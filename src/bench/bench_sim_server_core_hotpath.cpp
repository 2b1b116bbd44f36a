// Hot path — lock-free post() ingest under genuinely concurrent
// producers.
//
// The ROADMAP's admission-speed item: single-core trace ingest tops out
// near ~2.8M arrivals/s (`sim_server_core_scale`); the lock-free MPSC
// ring mailboxes + batched drains are the attack on that ceiling. This
// bench drives the same Poisson/Zipf catalogue through `post()` from
// 1/2/4/8 producer threads while the driver thread runs the drain loop
// concurrently, and reports
//
//  * aggregate arrivals/s per producer count (wall clock over the
//    whole concurrent phase including finish), and
//  * p99 per-admission ns — sampled steady_clock timings around
//    individual post() calls, the published cost of the hot path.
//
// Asserted invariants (never wall-clock — CI machines vary):
//  * every producer count lands on a snapshot identical to the serial
//    ingest_trace baseline, field by field and per object — the
//    bit-identical-snapshot contract extended to the concurrent path;
//  * a deliberately tiny ring (forcing the overflow-spill path under
//    load) still lands on the identical snapshot: spilling reorders
//    nothing observable.
#include "bench/registry.h"
#include "online/policy.h"
#include "sim/engine.h"
#include "util/parallel.h"
#include "util/table.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace smerge;
using namespace smerge::sim;

constexpr double kDelay = 0.01;

/// Every 2^7th post is timed individually — cheap enough to leave on
/// (the clock calls are off the untimed posts' path) and plenty of
/// samples for a stable p99 at bench scale.
constexpr std::uint64_t kSampleMask = 127;

EngineConfig hotpath_config(const bench::BenchContext& ctx) {
  EngineConfig config;
  config.workload.process = ArrivalProcess::kPoisson;
  config.workload.objects = ctx.quick ? 32 : 1000;
  config.workload.zipf_exponent = 1.0;
  // Full mode: expected aggregate arrivals = horizon / mean_gap ~ 10.2M
  // — the sim_server_core_scale load, so throughputs are comparable.
  // Quick mode still pushes ~100k arrivals: the throughput numbers feed
  // CI's 15% perf-trend floor, so the timed region must dwarf
  // scheduler jitter (a few ms of work is 20% noise on shared runners).
  config.workload.mean_gap = ctx.quick ? 1e-4 : 9.8e-6;
  config.workload.horizon = ctx.quick ? 10.0 : 100.0;
  config.workload.seed = ctx.seed;
  config.delay = kDelay;
  return config;
}

std::vector<std::vector<double>> make_traces(const EngineConfig& config,
                                             unsigned threads) {
  const std::vector<double> weights =
      zipf_weights(config.workload.objects, config.workload.zipf_exponent);
  const auto n = static_cast<std::size_t>(config.workload.objects);
  std::vector<std::vector<double>> traces(n);
  util::parallel_for(
      0, static_cast<std::int64_t>(n),
      [&](std::int64_t i) {
        traces[static_cast<std::size_t>(i)] = generate_arrivals(
            config.workload, static_cast<Index>(i),
            weights[static_cast<std::size_t>(i)]);
      },
      threads);
  return traces;
}

struct HotpathRow {
  unsigned producers = 0;
  server::Snapshot snapshot;
  double elapsed_ms = 0.0;
  double p99_post_ns = 0.0;
};

/// Serial ingest_trace baseline — the mutex-era shape the concurrent
/// runs must reproduce byte for byte.
HotpathRow run_baseline(const EngineConfig& config,
                        const std::vector<std::vector<double>>& traces) {
  HotpathRow row;
  BatchingPolicy policy;
  auto core_cfg = core_config(config);
  core_cfg.shards = 1;
  server::ServerCore core(core_cfg, policy);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t m = 0; m < traces.size(); ++m) {
    core.ingest_trace(static_cast<Index>(m), std::vector<double>(traces[m]));
  }
  core.finish();
  const auto end = std::chrono::steady_clock::now();
  row.elapsed_ms = std::chrono::duration<double, std::milli>(end - start).count();
  row.snapshot = core.take_snapshot();
  return row;
}

/// Concurrent run: `producers` threads publish through post() (objects
/// partitioned round-robin, so every object keeps a single producer)
/// while the caller's thread claims rings in a continuous drain loop.
HotpathRow run_posted(const EngineConfig& config,
                      const std::vector<std::vector<double>>& traces,
                      unsigned producers, Index mailbox_capacity) {
  HotpathRow row;
  row.producers = producers;
  BatchingPolicy policy;
  auto core_cfg = core_config(config);
  core_cfg.shards = producers;
  core_cfg.mailbox_capacity = mailbox_capacity;
  server::ServerCore core(core_cfg, policy);

  std::vector<std::vector<double>> samples(producers);
  std::atomic<unsigned> remaining{producers};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (unsigned p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      std::vector<double>& mine = samples[p];
      std::uint64_t posted = 0;
      for (std::size_t m = p; m < traces.size(); m += producers) {
        const auto object = static_cast<Index>(m);
        for (const double t : traces[m]) {
          if ((++posted & kSampleMask) == 0) {
            const auto t0 = std::chrono::steady_clock::now();
            core.post(object, t);
            const auto t1 = std::chrono::steady_clock::now();
            mine.push_back(
                std::chrono::duration<double, std::nano>(t1 - t0).count());
          } else {
            core.post(object, t);
          }
        }
      }
      remaining.fetch_sub(1, std::memory_order_release);
    });
  }
  // The drain loop overlaps publication: each pass claims whatever the
  // producers have published so far. The yield keeps producers running
  // on machines with fewer cores than threads.
  while (remaining.load(std::memory_order_acquire) > 0) {
    core.drain();
    std::this_thread::yield();
  }
  for (std::thread& t : threads) t.join();
  core.drain();  // the tail published between the last pass and the joins
  core.finish();
  const auto end = std::chrono::steady_clock::now();
  row.elapsed_ms = std::chrono::duration<double, std::milli>(end - start).count();
  row.snapshot = core.take_snapshot();

  std::vector<double> all;
  for (const auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    const auto rank = static_cast<std::size_t>(
        0.99 * static_cast<double>(all.size() - 1));
    row.p99_post_ns = all[rank];
  }
  return row;
}

bool snapshots_match(const server::Snapshot& a, const server::Snapshot& b) {
  return a.total_arrivals == b.total_arrivals &&
         a.total_streams == b.total_streams &&
         a.streams_served == b.streams_served &&
         a.peak_concurrency == b.peak_concurrency &&
         a.guarantee_violations == b.guarantee_violations &&
         a.wait.mean == b.wait.mean && a.wait.max == b.wait.max &&
         a.wait.p50 == b.wait.p50 && a.wait.p95 == b.wait.p95 &&
         a.wait.p99 == b.wait.p99 && a.per_object == b.per_object;
}

}  // namespace

SMERGE_BENCH(sim_server_core_hotpath,
             "Hot path — lock-free MPSC post() ingest: concurrent "
             "producers vs the serial ingest_trace baseline, identical "
             "snapshots at every producer count (including a tiny ring "
             "that forces overflow spill), aggregate arrivals/s, sampled "
             "p99 per-admission ns",
             "producers", "arrivals", "arrivals_per_s", "p99_admission_ns",
             "baseline_arrivals_per_s") {
  bench::BenchResult result;
  const EngineConfig config = hotpath_config(ctx);
  const std::vector<std::vector<double>> traces = make_traces(config, ctx.threads);

  // Quick mode is CI's perf-trend input: report each configuration's
  // best of three runs, the standard way to strip one-off scheduler
  // noise from a short timed region. Every repetition's snapshot is
  // still checked — determinism costs nothing here. Full-mode runs are
  // seconds long and stable, one repetition suffices.
  const int reps = ctx.quick ? 3 : 1;

  HotpathRow baseline = run_baseline(config, traces);
  for (int r = 1; r < reps; ++r) {
    HotpathRow again = run_baseline(config, traces);
    result.ok = result.ok && snapshots_match(again.snapshot, baseline.snapshot);
    if (again.elapsed_ms < baseline.elapsed_ms) baseline = std::move(again);
  }
  const double baseline_per_s =
      baseline.elapsed_ms > 0.0
          ? static_cast<double>(baseline.snapshot.total_arrivals) /
                (baseline.elapsed_ms / 1000.0)
          : 0.0;
  result.ok = result.ok && baseline.snapshot.guarantee_violations == 0 &&
              (ctx.quick || baseline.snapshot.total_arrivals >= 10'000'000);

  std::vector<unsigned> producer_counts{1, 2, 4, 8};
  if (ctx.quick) producer_counts = {1, 2};

  auto& producers_series = result.add_series("producers");
  auto& arrivals_series = result.add_series("arrivals");
  auto& throughput_series = result.add_series("arrivals_per_s");
  auto& p99_series = result.add_series("p99_admission_ns");
  auto& baseline_series = result.add_series("baseline_arrivals_per_s");
  util::TextTable table({"producers", "arrivals", "arrivals/s",
                         "p99 post ns", "core ms", "vs baseline"});

  for (const unsigned producers : producer_counts) {
    HotpathRow row =
        run_posted(config, traces, producers, /*mailbox_capacity=*/0);
    result.ok = result.ok && snapshots_match(row.snapshot, baseline.snapshot);
    for (int r = 1; r < reps; ++r) {
      HotpathRow again =
          run_posted(config, traces, producers, /*mailbox_capacity=*/0);
      result.ok =
          result.ok && snapshots_match(again.snapshot, baseline.snapshot);
      if (again.elapsed_ms < row.elapsed_ms) row = std::move(again);
    }
    const double per_s =
        row.elapsed_ms > 0.0
            ? static_cast<double>(row.snapshot.total_arrivals) /
                  (row.elapsed_ms / 1000.0)
            : 0.0;
    producers_series.values.push_back(static_cast<double>(producers));
    arrivals_series.values.push_back(
        static_cast<double>(row.snapshot.total_arrivals));
    throughput_series.values.push_back(per_s);
    p99_series.values.push_back(row.p99_post_ns);
    // One point per row (series stay aligned); the serial anchor every
    // concurrent throughput is read against.
    baseline_series.values.push_back(baseline_per_s);
    table.add_row(producers, row.snapshot.total_arrivals,
                  util::format_fixed(per_s, 0),
                  util::format_fixed(row.p99_post_ns, 0),
                  util::format_fixed(row.elapsed_ms, 0),
                  util::format_fixed(
                      baseline_per_s > 0.0 ? per_s / baseline_per_s : 0.0, 2));
  }
  result.tables.push_back(std::move(table));

  // Overflow-spill determinism: a ring far smaller than the load forces
  // the locked fallback path; the snapshot must not move.
  const HotpathRow spill =
      run_posted(config, traces, /*producers=*/2, /*mailbox_capacity=*/256);
  result.ok = result.ok && snapshots_match(spill.snapshot, baseline.snapshot);

  result.add_metric("baseline_arrivals_per_s", baseline_per_s);
  result.notes.push_back(
      "batching policy over " + std::to_string(config.workload.objects) +
      " objects; every producer count (and the 256-slot spill ring) lands "
      "on the serial baseline's exact snapshot");
  return result;
}
