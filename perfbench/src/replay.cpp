// replay: a batch trace replay through ServerCore in time-ordered waves
// (ingest_trace -> drain -> live_stats per wave, then finish +
// take_snapshot), checked against a serial one-shot ingest_trace run of
// the same trace.
#include <algorithm>

#include "online/policy.h"
#include "server/server_core.h"
#include "server/wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace smerge;

constexpr double kDelay = 0.01;
constexpr unsigned kShards = 4;
constexpr int kWaves = 10;
constexpr int kCheckpointAfterWave = 5;  ///< traced run only

using Traces = std::vector<std::vector<double>>;  ///< per object

/// waves[w][m]: object m's arrivals in (horizon * w / W, horizon * (w+1) / W].
std::vector<Traces> split_waves(const ReplayConfig& config, const Traces& traces) {
  std::vector<Traces> waves(kWaves, Traces(traces.size()));
  for (std::size_t m = 0; m < traces.size(); ++m) {
    std::size_t at = 0;
    for (int w = 0; w < kWaves; ++w) {
      const double until =
          w + 1 == kWaves ? config.horizon : config.horizon * (w + 1) / kWaves;
      auto& slice = waves[static_cast<std::size_t>(w)][m];
      while (at < traces[m].size() && traces[m][at] <= until) slice.push_back(traces[m][at++]);
    }
  }
  return waves;
}

server::ServerCoreConfig core_config(const ReplayConfig& config, unsigned shards) {
  server::ServerCoreConfig core;
  core.objects = config.objects;
  core.delay = kDelay;
  core.horizon = config.horizon;
  core.shards = shards;
  return core;
}

GreedyMergePolicy make_policy() {
  return GreedyMergePolicy(merging::DyadicParams{}, /*batched=*/true);
}

/// One waved replay. Traced replays also time every call (and take the
/// wave-5 checkpoint and the exact wait profile, both left out of
/// `wall_s`).
struct Replay {
  double wall_s = 0.0;  ///< first ingest -> take_snapshot returned
  std::vector<double> wave_s;
  double ingest_s = 0.0;
  std::vector<double> drain_s;
  std::vector<double> live_stats_s;
  double finish_s = 0.0;
  double snapshot_s = 0.0;
  double checkpoint_s = 0.0;
  double checkpoint_mb = 0.0;
  double exact_profile_s = 0.0;
  std::int64_t ledger_peak = 0;
  server::Snapshot snapshot;
  std::uint64_t digest = 0;
};

Replay replay_once(const ReplayConfig& config, unsigned shards, std::vector<Traces> waves,
                   Tracer& tracer, bool extras) {
  Replay out;
  GreedyMergePolicy policy = make_policy();
  server::ServerCore core(core_config(config, shards), policy);
  double excluded_s = 0.0;
  const Clock::time_point start = Clock::now();
  for (int w = 0; w < kWaves; ++w) {
    const Clock::time_point wave_start = Clock::now();
    for (std::int64_t m = 0; m < config.objects; ++m) {
      const int span = tracer.open("core.ingest_trace");
      core.ingest_trace(m, std::move(waves[static_cast<std::size_t>(w)][static_cast<std::size_t>(m)]));
      out.ingest_s += tracer.close(span);
    }
    int span = tracer.open("core.drain");
    core.drain();
    out.drain_s.push_back(tracer.close(span));
    span = tracer.open("core.live_stats");
    (void)core.live_stats();
    out.live_stats_s.push_back(tracer.close(span));
    out.wave_s.push_back(seconds_between(wave_start, Clock::now()));
    if (extras && w + 1 == kCheckpointAfterWave) {
      span = tracer.open("core.checkpoint");
      const std::vector<std::uint8_t> bytes = core.checkpoint();
      out.checkpoint_s = tracer.close(span);
      out.checkpoint_mb = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
      excluded_s += out.checkpoint_s;
    }
  }
  if (extras) {
    const int span = tracer.open("stats.exact_profile");
    (void)core.wait_profile(true);
    out.exact_profile_s = tracer.close(span);
    excluded_s += out.exact_profile_s;
  }
  int span = tracer.open("core.finish");
  core.finish();
  out.finish_s = tracer.close(span);
  out.ledger_peak = core.peak_channels();
  span = tracer.open("core.take_snapshot");
  out.snapshot = core.take_snapshot();
  out.snapshot_s = tracer.close(span);
  out.wall_s = seconds_between(start, Clock::now()) - excluded_s;
  out.digest = server::snapshot_digest(out.snapshot);
  return out;
}

/// Digest of a serial, one-shot ingest_trace run (one shard, one drain).
std::uint64_t reference_digest(const ReplayConfig& config, Traces traces) {
  GreedyMergePolicy policy = make_policy();
  server::ServerCore core(core_config(config, 1), policy);
  for (std::int64_t m = 0; m < config.objects; ++m) {
    core.ingest_trace(m, std::move(traces[static_cast<std::size_t>(m)]));
  }
  core.finish();
  return server::snapshot_digest(core.take_snapshot());
}

void check_replay(RunResult& result, const Replay& r, std::uint64_t reference,
                  std::int64_t arrivals, const std::string& what) {
  result.check(r.digest == reference, what + ": digest == serial ingest_trace digest");
  result.check(r.snapshot.total_arrivals == arrivals, what + ": every arrival counted");
  result.check(r.snapshot.guarantee_violations == 0, what + ": every wait within the delay");
  result.check(r.ledger_peak == r.snapshot.peak_concurrency,
               what + ": ledger peak == snapshot peak");
}

}  // namespace

RunResult run_replay(const ReplayConfig& config, const RunOptions& options,
                     Tracer& tracer) {
  RunResult result;
  // Before the trace is made, so every run times its constructions from
  // the same fresh heap.
  const double setup_s = median_setup_s([&] {
    GreedyMergePolicy policy = make_policy();
    server::ServerCore core(core_config(config, kShards), policy);
  });
  const Traces traces =
      per_object_arrivals(zipf_workload(config.objects, config.mean_gap, config.horizon,
                                        options.seed));
  std::int64_t arrivals = 0;
  for (const auto& t : traces) arrivals += static_cast<std::int64_t>(t.size());
  const std::vector<Traces> waves = split_waves(config, traces);

  if (!options.trace) {
    std::vector<Replay> reps;
    double rss_mb = 0.0;  // after the first pass: later passes reuse its memory
    const Clock::time_point start = Clock::now();
    do {
      reps.push_back(replay_once(config, kShards, waves, tracer, false));
      if (reps.size() == 1) rss_mb = self_peak_rss_mb();
    } while (seconds_between(start, Clock::now()) < options.seconds);
    const std::uint64_t reference = reference_digest(config, traces);

    // A wave is the unit of decision latency, and a pass has only ten:
    // the p99 of one pass is its slowest wave, and one VM stall sets it.
    // So each wave position's time is first the median over passes, and
    // the percentiles are taken over those per-position medians.
    std::vector<double> rate;
    std::vector<std::vector<double>> position_us(kWaves);
    for (const Replay& r : reps) {
      check_replay(result, r, reference, arrivals, "replay");
      rate.push_back(static_cast<double>(arrivals) / r.wall_s);
      for (int w = 0; w < kWaves; ++w) {
        const auto at = static_cast<std::size_t>(w);
        position_us[at].push_back(r.wave_s[at] * 1e6);
      }
    }
    std::vector<double> wave_us;
    for (auto& times : position_us) wave_us.push_back(median(std::move(times)));
    const Percentiles wave = percentiles(wave_us);
    const std::size_t waves_timed = wave.samples * reps.size();
    result.attempted = static_cast<std::uint64_t>(arrivals) * reps.size();
    const server::Snapshot& snap = reps.front().snapshot;
    result.add("setup_s", setup_s, "s", kSetupSamples);
    result.add("arrivals_per_s", median(rate), "1/s", rate.size());
    result.add("arrivals_per_s.min", *std::min_element(rate.begin(), rate.end()), "1/s", 1);
    result.add("arrivals_per_s.max", *std::max_element(rate.begin(), rate.end()), "1/s", 1);
    result.add("ticket_p50_us", wave.p50, "us", waves_timed);
    result.add("ticket_p99_us", wave.p99, "us", waves_timed);
    result.add("peak_rss_mb", rss_mb, "MB", 1);
    result.add("mean_channels", snap.streams_served / config.horizon, "channels", 1);
    result.add("wait_p99_media", snap.wait.p99, "media", static_cast<std::size_t>(arrivals));
    return result;
  }

  Tracer off(false);
  const Replay plain = replay_once(config, kShards, waves, off, false);
  tracer.next_run();
  const Replay traced = replay_once(config, kShards, waves, tracer, true);
  tracer.next_run();
  const Replay serial = replay_once(config, 1, waves, tracer, false);
  const std::uint64_t reference = reference_digest(config, traces);
  check_replay(result, plain, reference, arrivals, "untraced replay");
  check_replay(result, traced, reference, arrivals, "traced replay");
  check_replay(result, serial, reference, arrivals, "one-shard replay");
  result.attempted = static_cast<std::uint64_t>(arrivals) * 3;

  double drain_total = 0.0;
  for (const double s : traced.drain_s) drain_total += s;
  std::vector<double> drain_ms;
  for (const double s : traced.drain_s) drain_ms.push_back(s * 1e3);
  const Percentiles drain = percentiles(drain_ms);
  std::vector<double> live_us;
  for (const double s : traced.live_stats_s) live_us.push_back(s * 1e6);
  result.add("core.ingest_ms", traced.ingest_s * 1e3, "ms", 1);
  result.add("core.drain_ms", drain_total * 1e3, "ms", traced.drain_s.size());
  result.add("core.drain_p99_ms", drain.p99, "ms", drain.samples);
  result.add("core.finish_ms", traced.finish_s * 1e3, "ms", 1);
  result.add("core.finish_share", traced.finish_s / traced.wall_s, "ratio", 1);
  result.add("core.snapshot_ms", traced.snapshot_s * 1e3, "ms", 1);
  result.add("core.live_stats_us", median(live_us), "us", live_us.size());
  result.add("stats.exact_profile_ms", traced.exact_profile_s * 1e3, "ms", 1);
  result.add("core.shard_speedup", serial.wall_s / traced.wall_s, "ratio", 1);
  result.add("core.checkpoint_ms", traced.checkpoint_s * 1e3, "ms", 1);
  result.add("core.checkpoint_mb", traced.checkpoint_mb, "MB", 1);
  result.add("core.arrivals", static_cast<double>(traced.snapshot.total_arrivals), "count", 1);
  result.add("core.streams", static_cast<double>(traced.snapshot.total_streams), "count", 1);
  result.add("ledger.peak_channels", static_cast<double>(traced.ledger_peak), "count", 1);
  result.add("trace.overhead_ratio", traced.wall_s / plain.wall_s, "ratio", 1);
  return result;
}

}  // namespace perfbench
