// Ablation — the Section-5 multi-object server: average vs peak bandwidth.
//
// Sweep the aggregate load over a 10-movie Zipf catalogue and print, per
// policy, the total streams served and the aggregate peak channel count.
// The claim under test: the DG peak is flat in the load (the server can
// always admit), while the dyadic policies' peak grows with demand.
#include "bench/registry.h"
#include "sim/engine.h"
#include "util/parallel.h"

namespace {

using namespace smerge;
using namespace smerge::sim;

}  // namespace

SMERGE_BENCH(abl_multi_object,
             "Section 5 ablation — multi-object Zipf catalogue: streams "
             "served and peak concurrency per policy",
             "gap_pct", "dg_streams", "dg_peak", "dyadic_streams",
             "dyadic_peak", "batched_streams", "batched_peak") {
  const std::vector<double> pcts =
      ctx.quick ? std::vector<double>{2.0, 0.5}
                : std::vector<double>{2.0, 1.0, 0.5, 0.2, 0.1};

  struct Row {
    EngineResult dg;
    EngineResult dyadic;
    EngineResult batched;
  };
  const double horizon = ctx.quick ? 10.0 : 25.0;
  std::vector<Row> rows(pcts.size());
  util::parallel_for(
      0, static_cast<std::int64_t>(pcts.size()),
      [&](std::int64_t i) {
        const auto idx = static_cast<std::size_t>(i);
        EngineConfig config;
        config.workload.objects = 10;
        config.workload.zipf_exponent = 1.0;
        config.workload.mean_gap = pcts[idx] / 100.0;
        config.workload.horizon = horizon;
        config.workload.seed = 31;
        config.delay = 0.02;
        DelayGuaranteedPolicy dg;
        GreedyMergePolicy dyadic(merging::DyadicParams{}, /*batched=*/false);
        GreedyMergePolicy batched(merging::DyadicParams{}, /*batched=*/true);
        rows[idx].dg = run_engine(config, dg);
        rows[idx].dyadic = run_engine(config, dyadic);
        rows[idx].batched = run_engine(config, batched);
      },
      ctx.threads);

  bench::BenchResult result;
  auto& gap_series = result.add_series("gap_pct");
  auto& dg_streams = result.add_series("dg_streams");
  auto& dg_peak = result.add_series("dg_peak");
  auto& dyadic_streams = result.add_series("dyadic_streams");
  auto& dyadic_peak = result.add_series("dyadic_peak");
  auto& batched_streams = result.add_series("batched_streams");
  auto& batched_peak = result.add_series("batched_peak");
  util::TextTable table({"mean gap (% media)", "DG streams", "DG peak",
                         "dyadic streams", "dyadic peak", "batched streams",
                         "batched peak"});
  bool dg_peak_flat = true;
  Index first_dg_peak = -1;
  for (std::size_t i = 0; i < pcts.size(); ++i) {
    const Row& row = rows[i];
    if (first_dg_peak == -1) first_dg_peak = row.dg.peak_concurrency;
    dg_peak_flat = dg_peak_flat && row.dg.peak_concurrency == first_dg_peak;
    gap_series.values.push_back(pcts[i]);
    dg_streams.values.push_back(row.dg.streams_served);
    dg_peak.values.push_back(static_cast<double>(row.dg.peak_concurrency));
    dyadic_streams.values.push_back(row.dyadic.streams_served);
    dyadic_peak.values.push_back(
        static_cast<double>(row.dyadic.peak_concurrency));
    batched_streams.values.push_back(row.batched.streams_served);
    batched_peak.values.push_back(
        static_cast<double>(row.batched.peak_concurrency));
    table.add_row(util::format_fixed(pcts[i], 2), row.dg.streams_served,
                  row.dg.peak_concurrency, row.dyadic.streams_served,
                  row.dyadic.peak_concurrency, row.batched.streams_served,
                  row.batched.peak_concurrency);
  }
  result.ok = result.ok && dg_peak_flat;
  result.tables.push_back(std::move(table));
  result.notes.push_back(std::string("DG peak independent of load: ") +
                         (dg_peak_flat ? "yes" : "NO"));
  return result;
}
