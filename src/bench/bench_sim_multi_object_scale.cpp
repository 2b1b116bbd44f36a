// Scale — the discrete-event multi-object engine at the ROADMAP's load.
//
// Full mode simulates >= 1M Poisson arrivals over catalogues up to 1000
// Zipf-weighted objects (exponent 1.0, aggregate mean gap 1e-4 of the
// media length over a 100-media horizon) under the greedy dyadic policy,
// immediate and batched. The run asserts the engine's guarantees rather
// than just timing it: batched waits never exceed the configured delay
// (zero guarantee violations), immediate service has zero wait, and
// batching strictly reduces bandwidth when arrivals are denser than the
// delay. All series are deterministic for the seed — identical at any
// --threads — while wall-clock throughput lands in the (timing) metrics.
#include "bench/registry.h"
#include "online/policy.h"
#include "sim/engine.h"
#include "util/table.h"

#include <chrono>

namespace {

using namespace smerge;
using namespace smerge::sim;

constexpr double kDelay = 0.01;

struct ScaleRow {
  Index objects = 0;
  EngineResult immediate;
  EngineResult batched;
  double elapsed_ms = 0.0;
};

EngineConfig scale_config(Index objects, double mean_gap, double horizon,
                          const smerge::bench::BenchContext& ctx) {
  EngineConfig config;
  config.workload.process = ArrivalProcess::kPoisson;
  config.workload.objects = objects;
  config.workload.zipf_exponent = 1.0;
  config.workload.mean_gap = mean_gap;
  config.workload.horizon = horizon;
  config.workload.seed = ctx.seed;  // reproducible from the CLI (--seed)
  config.delay = kDelay;
  config.threads = ctx.threads;
  return config;
}

}  // namespace

SMERGE_BENCH(sim_multi_object_scale,
             "Scale — event-driven engine: ~1M Poisson arrivals over Zipf "
             "catalogues under immediate and batched greedy merging",
             "objects", "arrivals", "immediate_streams_served", "immediate_peak",
             "batched_streams_served", "batched_peak", "batched_p50_wait",
             "batched_p99_wait", "batched_max_wait", "violations") {
  const std::vector<Index> catalogues =
      ctx.quick ? std::vector<Index>{8, 32} : std::vector<Index>{128, 1000};
  const double mean_gap = ctx.quick ? 2e-3 : 1e-4;
  const double horizon = ctx.quick ? 10.0 : 100.0;

  bench::BenchResult result;
  std::vector<ScaleRow> rows;
  rows.reserve(catalogues.size());
  double total_arrivals = 0.0;
  double total_elapsed_ms = 0.0;
  for (const Index objects : catalogues) {
    ScaleRow row;
    row.objects = objects;
    const EngineConfig config = scale_config(objects, mean_gap, horizon, ctx);
    const auto start = std::chrono::steady_clock::now();
    GreedyMergePolicy immediate(merging::DyadicParams{}, /*batched=*/false);
    row.immediate = run_engine(config, immediate);
    GreedyMergePolicy batched(merging::DyadicParams{}, /*batched=*/true);
    row.batched = run_engine(config, batched);
    const auto end = std::chrono::steady_clock::now();
    row.elapsed_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    total_arrivals += static_cast<double>(row.immediate.total_arrivals) +
                      static_cast<double>(row.batched.total_arrivals);
    total_elapsed_ms += row.elapsed_ms;
    rows.push_back(std::move(row));
  }

  auto& objects_series = result.add_series("objects");
  auto& arrivals_series = result.add_series("arrivals");
  auto& imm_streams = result.add_series("immediate_streams_served");
  auto& imm_peak = result.add_series("immediate_peak");
  auto& bat_streams = result.add_series("batched_streams_served");
  auto& bat_peak = result.add_series("batched_peak");
  auto& bat_p50 = result.add_series("batched_p50_wait");
  auto& bat_p99 = result.add_series("batched_p99_wait");
  auto& bat_max = result.add_series("batched_max_wait");
  auto& violations = result.add_series("violations");
  util::TextTable table({"objects", "arrivals", "immediate streams",
                         "immediate peak", "batched streams", "batched peak",
                         "batched p99 wait", "sim ms"});
  for (const ScaleRow& row : rows) {
    const EngineResult& imm = row.immediate;
    const EngineResult& bat = row.batched;
    // The guarantees under test: immediate service waits nothing, the
    // batched variant always starts within the delay, and batching pays
    // off when arrivals are denser than the delay.
    result.ok = result.ok && imm.wait.max == 0.0 &&
                imm.guarantee_violations == 0 && bat.guarantee_violations == 0 &&
                !server::violates_guarantee(bat.wait.max, kDelay) &&
                bat.streams_served < imm.streams_served;
    objects_series.values.push_back(static_cast<double>(row.objects));
    arrivals_series.values.push_back(static_cast<double>(imm.total_arrivals));
    imm_streams.values.push_back(imm.streams_served);
    imm_peak.values.push_back(static_cast<double>(imm.peak_concurrency));
    bat_streams.values.push_back(bat.streams_served);
    bat_peak.values.push_back(static_cast<double>(bat.peak_concurrency));
    bat_p50.values.push_back(bat.wait.p50);
    bat_p99.values.push_back(bat.wait.p99);
    bat_max.values.push_back(bat.wait.max);
    violations.values.push_back(static_cast<double>(
        imm.guarantee_violations + bat.guarantee_violations));
    table.add_row(row.objects, imm.total_arrivals, imm.streams_served,
                  imm.peak_concurrency, bat.streams_served, bat.peak_concurrency,
                  util::format_fixed(bat.wait.p99, 6),
                  util::format_fixed(row.elapsed_ms, 1));
  }
  result.tables.push_back(std::move(table));
  result.add_metric("arrivals_total", total_arrivals);
  result.add_metric("sim_elapsed_ms", total_elapsed_ms);
  result.add_metric("throughput_arrivals_per_sec",
                    total_elapsed_ms > 0.0
                        ? total_arrivals / (total_elapsed_ms / 1000.0)
                        : 0.0);
  result.notes.push_back(
      "aggregate mean gap " + util::format_fixed(mean_gap, 6) + ", horizon " +
      util::format_fixed(horizon, 0) + " media, delay 1% — " +
      util::format_fixed(total_arrivals, 0) + " arrivals simulated in " +
      util::format_fixed(total_elapsed_ms, 0) + " ms");
  return result;
}
