// Smoke test of the benchmark registry: every registered bench must run
// in --quick mode, succeed, emit every series it declared (each with at
// least two points), and produce a JSON document that parses.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench/registry.h"
#include "bench/runner.h"
#include "util/json_writer.h"

namespace {

using smerge::bench::BenchContext;
using smerge::bench::BenchRegistry;
using smerge::bench::BenchRun;
using smerge::bench::BenchSpec;

BenchContext quick_context() {
  BenchContext ctx;
  ctx.quick = true;
  ctx.threads = 2;
  return ctx;
}

std::vector<BenchRun> run_all_quick() {
  static const std::vector<BenchRun> runs = [] {
    std::vector<BenchRun> out;
    for (const BenchSpec* spec : BenchRegistry::instance().all()) {
      out.push_back(smerge::bench::run_bench(*spec, quick_context()));
    }
    return out;
  }();
  return runs;
}

TEST(BenchRegistry, AllMigratedBenchesAreRegistered) {
  const std::vector<std::string> expected = {
      "abl_buffer_sweep",     "abl_dyadic_params",
      "abl_general_offline",  "abl_hybrid",
      "abl_multi_object",     "cpx_general",
      "cpx_general_scaling",  "cpx_offline",
      "cpx_online",           "cpx_parallel_scaling",
      "cpx_plan_ops",
      "fig01_delay_sweep",
      "fig08_root_intervals", "fig09_online_ratio",
      "fig11_constant_arrivals", "fig12_poisson_arrivals",
      "sim_multi_object_scale", "sim_recovery",
      "sim_session_churn",    "sim_workload_mix",
      "tab01_merge_cost",     "tab02_full_cost",
      "tab03_fibonacci_trees", "thm08_asymptotics",
      "thm13_full_cost_asymptotics", "thm14_batching_ratio",
      "thm19_receive_all_ratio", "thm22_online_bound"};
  EXPECT_EQ(BenchRegistry::instance().size(), expected.size());
  for (const std::string& name : expected) {
    EXPECT_NE(BenchRegistry::instance().find(name), nullptr)
        << "missing bench " << name;
  }
}

TEST(BenchRegistry, SpecsAreWellFormed) {
  for (const BenchSpec* spec : BenchRegistry::instance().all()) {
    EXPECT_FALSE(spec->name.empty());
    EXPECT_FALSE(spec->description.empty()) << spec->name;
    EXPECT_FALSE(spec->series.empty()) << spec->name;
    EXPECT_TRUE(spec->run != nullptr) << spec->name;
  }
}

TEST(BenchRegistry, QuickRunSucceedsEverywhere) {
  for (const BenchRun& run : run_all_quick()) {
    EXPECT_TRUE(run.error.empty())
        << run.spec->name << " threw: " << run.error;
    EXPECT_TRUE(run.result.ok) << run.spec->name << " reported failure";
  }
}

TEST(BenchRegistry, DeclaredSeriesAreEmittedWithData) {
  for (const BenchRun& run : run_all_quick()) {
    ASSERT_TRUE(run.error.empty()) << run.spec->name;
    for (const std::string& declared : run.spec->series) {
      const auto it = std::find_if(
          run.result.series.begin(), run.result.series.end(),
          [&declared](const auto& s) { return s.name == declared; });
      ASSERT_NE(it, run.result.series.end())
          << run.spec->name << " did not emit declared series " << declared;
      EXPECT_GE(it->values.size(), 2u)
          << run.spec->name << " series " << declared
          << " must keep >= 2 points even in --quick mode";
    }
  }
}

TEST(BenchRegistry, DataSeriesDeterministicAcrossThreadCounts) {
  // The ThreadPool fan-out must not change what a bench computes: every
  // non-timing series of the parallel_for-heavy data benches is
  // bit-identical under --threads=1 and --threads=4. (Timing series
  // cpx_* emit are inherently run-dependent and excluded.)
  for (const std::string name :
       {"abl_general_offline", "fig12_poisson_arrivals", "tab02_full_cost"}) {
    const BenchSpec* spec = BenchRegistry::instance().find(name);
    ASSERT_NE(spec, nullptr) << name;
    BenchContext serial = quick_context();
    serial.threads = 1;
    BenchContext pooled = quick_context();
    pooled.threads = 4;
    const BenchRun a = smerge::bench::run_bench(*spec, serial);
    const BenchRun b = smerge::bench::run_bench(*spec, pooled);
    ASSERT_TRUE(a.error.empty()) << name << ": " << a.error;
    ASSERT_TRUE(b.error.empty()) << name << ": " << b.error;
    ASSERT_EQ(a.result.series.size(), b.result.series.size()) << name;
    for (std::size_t s = 0; s < a.result.series.size(); ++s) {
      EXPECT_EQ(a.result.series[s].name, b.result.series[s].name) << name;
      EXPECT_EQ(a.result.series[s].values, b.result.series[s].values)
          << name << " series " << a.result.series[s].name
          << " differs between --threads=1 and --threads=4";
    }
  }
}

TEST(BenchRegistry, JsonDocumentParsesAndContainsSeries) {
  const std::vector<BenchRun> runs = run_all_quick();
  const std::string doc = smerge::bench::to_json(runs, quick_context());

  const auto error = smerge::util::json_error(doc);
  EXPECT_FALSE(error.has_value()) << *error;

  EXPECT_NE(doc.find("\"schema\": \"smerge-bench-v1\""), std::string::npos);
  for (const BenchRun& run : runs) {
    EXPECT_NE(doc.find('"' + run.spec->name + '"'), std::string::npos)
        << run.spec->name;
    for (const std::string& declared : run.spec->series) {
      EXPECT_NE(doc.find('"' + declared + "\": ["), std::string::npos)
          << run.spec->name << " series " << declared << " absent from JSON";
    }
  }
}

}  // namespace
