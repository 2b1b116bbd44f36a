#include "sim/engine.h"

#include <stdexcept>
#include <utility>

#include "util/parallel.h"

namespace smerge::sim {

server::ServerCoreConfig core_config(const EngineConfig& config) {
  server::ServerCoreConfig core;
  core.objects = config.workload.objects;
  core.delay = config.delay;
  core.horizon = config.workload.horizon;
  core.shards = config.threads;
  core.serve = server::ServeMode::kPolicy;
  core.channel_capacity = config.channel_capacity;
  core.admission = server::AdmissionMode::kObserve;
  core.collect_stream_intervals = config.collect_stream_intervals;
  core.collect_plans = config.collect_plans;
  core.enable_sessions = config.churn.enabled();
  core.chunking = config.chunking;
  return core;
}

EngineResult run_engine(const EngineConfig& config, OnlinePolicy& policy) {
  validate(config.workload);
  if (config.threads < 1) {
    throw std::invalid_argument("engine: threads must be >= 1");
  }
  if (config.channel_capacity < 0) {
    throw std::invalid_argument("engine: channel_capacity must be >= 0");
  }
  // The core calls policy.prepare (single-threaded) and builds the
  // per-object ObjectPolicy states.
  server::ServerCore core(core_config(config), policy);

  // Trace generation fans out over the pool: each object's arrivals
  // (and, under churn, its session events) are a pure function of
  // (workload, object), whatever thread computes them.
  const std::vector<double> weights =
      zipf_weights(config.workload.objects, config.workload.zipf_exponent);
  const auto n_objects = static_cast<std::size_t>(config.workload.objects);
  if (config.churn.enabled()) {
    std::vector<std::vector<SessionTrace>> traces(n_objects);
    util::parallel_for(
        0, static_cast<std::int64_t>(n_objects),
        [&](std::int64_t i) {
          const auto m = static_cast<std::size_t>(i);
          traces[m] = generate_sessions(config.workload, config.churn,
                                        static_cast<Index>(i), weights[m]);
        },
        config.threads);
    for (std::size_t m = 0; m < n_objects; ++m) {
      core.ingest_session_trace(static_cast<Index>(m), std::move(traces[m]));
    }
  } else {
    std::vector<std::vector<double>> traces(n_objects);
    util::parallel_for(
        0, static_cast<std::int64_t>(n_objects),
        [&](std::int64_t i) {
          const auto m = static_cast<std::size_t>(i);
          traces[m] =
              generate_arrivals(config.workload, static_cast<Index>(i), weights[m]);
        },
        config.threads);
    for (std::size_t m = 0; m < n_objects; ++m) {
      core.ingest_trace(static_cast<Index>(m), std::move(traces[m]));
    }
  }

  // drain() shards the mailboxes over the pool; finish() flushes the
  // horizon schedules and runs the fixed-order reduction.
  core.finish();
  return core.take_snapshot();
}

}  // namespace smerge::sim
