// Crash consistency end to end: kill-point recovery fuzz over the
// PR-2 540-instance corpus (policy ingest/drain runs and slotted
// capacity-aware admit runs), torn-WAL and corrupted-checkpoint
// handling, ledger and plan state round-trips, and the deterministic
// fault-injection harness on a sessions-enabled flash-crowd engine run
// at shard widths 1, 2 and 4.
//
// The oracle everywhere: a run crashed at WAL record k and put through
// `server::recover` (checkpoint restore + WAL tail replay + re-feed of
// the regenerated remainder) finishes with a snapshot bit-identical to
// the uninterrupted run's — every counter, every exact percentile,
// every per-object outcome. Corruption never surfaces as UB: a flipped
// checkpoint byte or a torn WAL suffix is a structured SnapshotError /
// torn-tail report, and recovery falls back to the next artifact.
#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/plan_io.h"
#include "merging/optimal_general.h"
#include "online/policy.h"
#include "server/channel_ledger.h"
#include "server/checkpoint.h"
#include "server/server_core.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "util/snapshot.h"

namespace {

using namespace smerge;

// --- shared oracles ---------------------------------------------------------

void expect_same_wait(const util::DelayProfile& a, const util::DelayProfile& b,
                      const std::string& context) {
  EXPECT_EQ(a.mean, b.mean) << context;
  EXPECT_EQ(a.p50, b.p50) << context;
  EXPECT_EQ(a.p95, b.p95) << context;
  EXPECT_EQ(a.p99, b.p99) << context;
  EXPECT_EQ(a.max, b.max) << context;
}

void expect_same_snapshot(const server::Snapshot& a, const server::Snapshot& b,
                          const std::string& context) {
  EXPECT_EQ(a.total_arrivals, b.total_arrivals) << context;
  EXPECT_EQ(a.total_streams, b.total_streams) << context;
  EXPECT_EQ(a.streams_served, b.streams_served) << context;
  expect_same_wait(a.wait, b.wait, context);
  EXPECT_EQ(a.peak_concurrency, b.peak_concurrency) << context;
  EXPECT_EQ(a.guarantee_violations, b.guarantee_violations) << context;
  EXPECT_EQ(a.capacity_violations, b.capacity_violations) << context;
  EXPECT_EQ(a.rejected, b.rejected) << context;
  EXPECT_EQ(a.deferrals, b.deferrals) << context;
  EXPECT_EQ(a.degraded, b.degraded) << context;
  EXPECT_EQ(a.total_sessions, b.total_sessions) << context;
  EXPECT_EQ(a.session_pauses, b.session_pauses) << context;
  EXPECT_EQ(a.session_seeks, b.session_seeks) << context;
  EXPECT_EQ(a.session_abandons, b.session_abandons) << context;
  EXPECT_EQ(a.plan_truncations, b.plan_truncations) << context;
  EXPECT_EQ(a.plan_reroots, b.plan_reroots) << context;
  EXPECT_EQ(a.retracted_cost, b.retracted_cost) << context;
  EXPECT_EQ(a.extended_cost, b.extended_cost) << context;
  EXPECT_EQ(a.per_object, b.per_object) << context;
}

void expect_same_result(const sim::EngineResult& a, const sim::EngineResult& b,
                        const std::string& context) {
  EXPECT_EQ(a.total_arrivals, b.total_arrivals) << context;
  EXPECT_EQ(a.total_streams, b.total_streams) << context;
  EXPECT_EQ(a.streams_served, b.streams_served) << context;
  expect_same_wait(a.wait, b.wait, context);
  EXPECT_EQ(a.peak_concurrency, b.peak_concurrency) << context;
  EXPECT_EQ(a.guarantee_violations, b.guarantee_violations) << context;
  EXPECT_EQ(a.capacity_violations, b.capacity_violations) << context;
  EXPECT_EQ(a.total_sessions, b.total_sessions) << context;
  EXPECT_EQ(a.session_pauses, b.session_pauses) << context;
  EXPECT_EQ(a.session_seeks, b.session_seeks) << context;
  EXPECT_EQ(a.session_abandons, b.session_abandons) << context;
  EXPECT_EQ(a.plan_truncations, b.plan_truncations) << context;
  EXPECT_EQ(a.plan_reroots, b.plan_reroots) << context;
  EXPECT_EQ(a.retracted_cost, b.retracted_cost) << context;
  EXPECT_EQ(a.extended_cost, b.extended_cost) << context;
  EXPECT_EQ(a.per_object, b.per_object) << context;
}

// The PR-2 fuzz corpus generator (test_plan.cpp / test_session_repair.cpp):
// 180 trials x 3 media lengths = 540 instances of sorted unique arrival
// times on [0, 8).
std::vector<std::vector<double>> corpus_traces() {
  std::mt19937_64 rng(20260728);
  std::uniform_int_distribution<std::size_t> size_dist(0, 24);
  std::uniform_real_distribution<double> time_dist(0.0, 8.0);
  std::vector<std::vector<double>> traces;
  traces.reserve(180);
  for (int trial = 0; trial < 180; ++trial) {
    const std::size_t n = size_dist(rng);
    std::vector<double> t(n);
    for (double& x : t) x = time_dist(rng);
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    traces.push_back(std::move(t));
  }
  return traces;
}

// Driver-blob codec shared by the recorded drivers below: the chunk (or
// global admit) cursor plus each object's trace cursor.
std::vector<std::uint8_t> encode_cursors(std::uint64_t head,
                                         const std::vector<std::uint64_t>& cs) {
  util::SnapshotWriter w;
  w.u64(head);
  w.u64(cs.size());
  for (const std::uint64_t c : cs) w.u64(c);
  const auto p = w.payload();
  return {p.begin(), p.end()};
}

std::vector<std::uint64_t> decode_cursors(std::span<const std::uint8_t> blob,
                                          std::size_t n) {
  std::vector<std::uint64_t> cs(n, 0);
  if (blob.empty()) return cs;
  util::SnapshotReader r(blob);
  (void)r.u64();
  const std::uint64_t count = r.u64();
  EXPECT_EQ(count, n);
  for (std::size_t i = 0; i < n; ++i) cs[i] = r.u64();
  r.expect_end();
  return cs;
}

// One uninterrupted policy-path run of a corpus instance, recorded: the
// WAL byte length after every record, every checkpoint with its WAL
// cursor, and the final snapshot. Kill points replay against these
// artifacts without re-running the driver.
struct RecordedRun {
  server::ServerCoreConfig config;
  std::vector<std::vector<double>> per_object;      // the split traces
  server::AdmissionWal wal;
  std::vector<std::size_t> bytes_at_record;         // wal size after record i
  std::vector<std::pair<std::vector<std::uint8_t>, std::uint64_t>> checkpoints;
  server::Snapshot uninterrupted;
};

RecordedRun record_policy_run(const std::vector<double>& times, double delay) {
  RecordedRun run;
  run.config.objects = 3;
  run.config.delay = delay;
  run.config.horizon = 8.0;
  run.per_object.resize(3);
  for (std::size_t i = 0; i < times.size(); ++i) {
    run.per_object[i % 3].push_back(times[i]);
  }

  GreedyMergePolicy policy(merging::DyadicParams{}, /*batched=*/true);
  server::ServerCore core(run.config, policy);
  std::vector<std::uint64_t> cursors(3, 0);
  const auto note_record = [&] {
    run.bytes_at_record.push_back(run.wal.bytes().size());
  };
  for (int chunk = 0; chunk < 4; ++chunk) {
    const double upper = chunk == 3 ? 1e300 : 2.0 * (chunk + 1);
    for (std::size_t m = 0; m < 3; ++m) {
      std::uint64_t end = cursors[m];
      while (end < run.per_object[m].size() &&
             run.per_object[m][static_cast<std::size_t>(end)] <= upper) {
        ++end;
      }
      if (end == cursors[m]) continue;
      const std::span<const double> batch{
          run.per_object[m].data() + cursors[m],
          static_cast<std::size_t>(end - cursors[m])};
      run.wal.log_ingest_trace(static_cast<Index>(m), batch);
      note_record();
      core.ingest_trace(static_cast<Index>(m), {batch.begin(), batch.end()});
      cursors[m] = end;
      if (m == 0 && chunk % 2 == 1) {
        // A checkpoint with pending, un-drained mailboxes — the
        // quiescent-point contract is between calls, not drains.
        run.checkpoints.emplace_back(
            core.checkpoint(run.wal.records(), encode_cursors(0, cursors)),
            run.wal.records());
      }
    }
    run.wal.log_drain();
    note_record();
    core.drain();
    run.checkpoints.emplace_back(
        core.checkpoint(run.wal.records(), encode_cursors(0, cursors)),
        run.wal.records());
  }
  core.finish();
  run.uninterrupted = core.take_snapshot();
  return run;
}

// Recovers a recorded run killed after `kill_record` WAL records (the
// durable WAL holding exactly that prefix plus `extra_tail` garbage
// bytes), finishes it, and checks the snapshot against the
// uninterrupted run. `shards` exercises restore across widths.
void recover_and_check(const RecordedRun& run, std::uint64_t kill_record,
                       unsigned shards,
                       std::span<const std::uint8_t> extra_tail,
                       const std::string& context) {
  std::vector<std::uint8_t> durable(
      run.wal.bytes().begin(),
      run.wal.bytes().begin() +
          static_cast<std::ptrdiff_t>(
              kill_record == 0
                  ? 16
                  : run.bytes_at_record[static_cast<std::size_t>(kill_record) -
                                        1]));
  durable.insert(durable.end(), extra_tail.begin(), extra_tail.end());

  std::vector<std::vector<std::uint8_t>> candidates;
  for (auto it = run.checkpoints.rbegin(); it != run.checkpoints.rend(); ++it) {
    if (it->second <= kill_record) candidates.push_back(it->first);
  }

  server::ServerCoreConfig config = run.config;
  config.shards = shards;
  GreedyMergePolicy policy(merging::DyadicParams{}, /*batched=*/true);
  server::RecoveredCore recovered =
      server::recover(config, &policy, candidates,
                      {durable.data(), durable.size()});
  EXPECT_EQ(recovered.report.wal_torn, !extra_tail.empty()) << context;
  EXPECT_EQ(recovered.report.used_checkpoint, !candidates.empty()) << context;

  std::vector<std::uint64_t> cursors =
      decode_cursors({recovered.driver_blob.data(),
                      recovered.driver_blob.size()},
                     3);
  for (const server::WalRecord& record : recovered.replayed) {
    if (record.type == server::WalRecordType::kIngestTrace) {
      cursors[static_cast<std::size_t>(record.object)] += record.times.size();
    }
  }
  for (std::size_t m = 0; m < 3; ++m) {
    if (cursors[m] >= run.per_object[m].size()) continue;
    recovered.core->ingest_trace(
        static_cast<Index>(m),
        {run.per_object[m].begin() + static_cast<std::ptrdiff_t>(cursors[m]),
         run.per_object[m].end()});
  }
  recovered.core->finish();
  server::Snapshot snapshot = recovered.core->take_snapshot();
  expect_same_snapshot(snapshot, run.uninterrupted, context);
}

}  // namespace

// --- kill-point fuzz over the corpus ----------------------------------------

TEST(Recovery, CorpusKillPointsPolicyPathBitIdentical) {
  const std::vector<std::vector<double>> traces = corpus_traces();
  std::mt19937_64 kills(0xdead5eedULL);
  const double delays[3] = {0.01, 0.1, 0.5};
  int kill_points = 0;
  for (std::size_t trial = 0; trial < traces.size(); trial += 9) {
    const RecordedRun run =
        record_policy_run(traces[trial], delays[(trial / 9) % 3]);
    const std::uint64_t records = run.wal.records();
    for (int k = 0; k < 3; ++k) {
      const std::uint64_t kill =
          records == 0 ? 0 : kills() % (records + 1);
      const unsigned shards = 1u << (kill_points % 3);  // 1, 2, 4
      recover_and_check(run, kill, shards, {},
                        "trial=" + std::to_string(trial) +
                            " kill=" + std::to_string(kill) +
                            " shards=" + std::to_string(shards));
      ++kill_points;
    }
  }
  EXPECT_GE(kill_points, 50);
}

TEST(Recovery, TornWalTailRecoversAtRecordBoundary) {
  const std::vector<std::vector<double>> traces = corpus_traces();
  // A torn suffix — half a record header, then noise — must be dropped
  // at the last complete record, landing on the same state as a clean
  // kill there.
  const std::uint8_t torn[] = {0x20, 0x00, 0x00, 0x00, 0xab, 0xcd, 0x11};
  for (const std::size_t trial : {4UL, 40UL, 112UL}) {
    const RecordedRun run = record_policy_run(traces[trial], 0.1);
    const std::uint64_t records = run.wal.records();
    if (records == 0) continue;
    for (const std::uint64_t kill : {records / 2, records}) {
      recover_and_check(run, kill, 2, torn,
                        "torn trial=" + std::to_string(trial) +
                            " kill=" + std::to_string(kill));
    }
  }
}

TEST(Recovery, CorruptedCheckpointDetectedAndFallsBack) {
  const std::vector<std::vector<double>> traces = corpus_traces();
  const RecordedRun run = record_policy_run(traces[7], 0.1);
  ASSERT_GE(run.checkpoints.size(), 2u);
  const auto& [newest_frame, newest_cursor] = run.checkpoints.back();
  const auto& [older_frame, older_cursor] = run.checkpoints.front();

  // Every flipped byte is a structured error on a fresh core, never UB.
  const std::size_t probes[] = {0,
                                1,
                                newest_frame.size() / 4,
                                newest_frame.size() / 2,
                                (3 * newest_frame.size()) / 4,
                                newest_frame.size() - 9,
                                newest_frame.size() - 1};
  for (const std::size_t at : probes) {
    std::vector<std::uint8_t> corrupt = newest_frame;
    corrupt[at] ^= 0x40;
    GreedyMergePolicy policy(merging::DyadicParams{}, /*batched=*/true);
    server::ServerCore core(run.config, policy);
    EXPECT_THROW((void)core.restore_state({corrupt.data(), corrupt.size()}),
                 util::SnapshotError)
        << "byte " << at;
  }

  // recover() skips the damaged candidate, restores the older one, and
  // still lands bit-identical after replaying the longer WAL tail.
  std::vector<std::uint8_t> corrupt = newest_frame;
  corrupt[corrupt.size() / 2] ^= 0x40;
  std::vector<std::uint8_t> durable = run.wal.bytes();
  GreedyMergePolicy policy(merging::DyadicParams{}, /*batched=*/true);
  server::RecoveredCore recovered = server::recover(
      run.config, &policy,
      std::vector<std::vector<std::uint8_t>>{corrupt, older_frame},
      {durable.data(), durable.size()});
  EXPECT_TRUE(recovered.report.used_checkpoint);
  EXPECT_EQ(recovered.report.checkpoint_index, 1u);
  ASSERT_EQ(recovered.report.rejected_checkpoints.size(), 1u);
  EXPECT_EQ(recovered.report.wal_records_replayed,
            run.wal.records() - older_cursor);
  (void)newest_cursor;
  recovered.core->finish();
  expect_same_snapshot(recovered.core->take_snapshot(), run.uninterrupted,
                       "fallback");
}

TEST(Recovery, SlottedAdmitKillPointsUnderCapacityBitIdentical) {
  const std::vector<std::vector<double>> traces = corpus_traces();
  std::mt19937_64 kills(0xad317ULL);
  for (std::size_t trial = 0; trial < traces.size(); trial += 18) {
    const std::vector<double>& times = traces[trial];
    server::ServerCoreConfig config;
    config.objects = 3;
    config.delay = 0.25;
    config.horizon = 8.0;
    config.serve = server::ServeMode::kSlottedBatching;
    config.channel_capacity = 2;
    config.admission = server::AdmissionMode::kDefer;

    // Uninterrupted run, recorded.
    server::AdmissionWal wal;
    std::vector<std::size_t> bytes_at_record;
    std::vector<std::pair<std::vector<std::uint8_t>, std::uint64_t>> ckpts;
    server::ServerCore core(config);
    for (std::size_t i = 0; i < times.size(); ++i) {
      const auto object = static_cast<Index>(i % 3);
      wal.log_admit(object, times[i]);
      bytes_at_record.push_back(wal.bytes().size());
      (void)core.admit(object, times[i]);
      if ((i + 1) % 8 == 0) {
        ckpts.emplace_back(core.checkpoint(wal.records(),
                                           encode_cursors(i + 1, {})),
                           wal.records());
      }
    }
    core.finish();
    const server::Snapshot uninterrupted = core.take_snapshot();

    for (int k = 0; k < 2; ++k) {
      const std::uint64_t records = wal.records();
      const std::uint64_t kill = records == 0 ? 0 : kills() % (records + 1);
      std::vector<std::uint8_t> durable(
          wal.bytes().begin(),
          wal.bytes().begin() +
              static_cast<std::ptrdiff_t>(
                  kill == 0 ? 16
                            : bytes_at_record[static_cast<std::size_t>(kill) -
                                              1]));
      std::vector<std::vector<std::uint8_t>> candidates;
      for (auto it = ckpts.rbegin(); it != ckpts.rend(); ++it) {
        if (it->second <= kill) candidates.push_back(it->first);
      }
      // Degrade-under-pressure is recovery's *intentional* divergence
      // from the uninterrupted run (defer flips to degrade when the
      // recovered clock finds the channels saturated); switch it off so
      // the bit-identity oracle applies, and test it separately below.
      server::RecoveredCore recovered = server::recover(
          config, nullptr, candidates, {durable.data(), durable.size()},
          {.degrade_under_pressure = false});
      std::uint64_t cursor = 0;
      if (!recovered.driver_blob.empty()) {
        util::SnapshotReader r(
            {recovered.driver_blob.data(), recovered.driver_blob.size()});
        cursor = r.u64();
      }
      for (const server::WalRecord& record : recovered.replayed) {
        if (record.type == server::WalRecordType::kAdmit) ++cursor;
      }
      for (std::size_t i = static_cast<std::size_t>(cursor); i < times.size();
           ++i) {
        (void)recovered.core->admit(static_cast<Index>(i % 3), times[i]);
      }
      recovered.core->finish();
      expect_same_snapshot(recovered.core->take_snapshot(), uninterrupted,
                           "slotted trial=" + std::to_string(trial) +
                               " kill=" + std::to_string(kill));
    }
  }
}

TEST(Recovery, RecoveryUnderCapacityPressureDegradesInsteadOfRefusing) {
  // A defer core killed with its one channel saturated: with the
  // default options, recovery flips admissions to the degrade path —
  // every remaining client is served (late batches count as guarantee
  // violations), nobody is refused after the restart.
  std::vector<double> times;
  for (int i = 0; i < 40; ++i) times.push_back(0.05 + 0.1 * i);
  server::ServerCoreConfig config;
  config.objects = 2;
  config.delay = 0.5;
  config.horizon = 8.0;
  config.serve = server::ServeMode::kSlottedBatching;
  config.channel_capacity = 1;
  config.admission = server::AdmissionMode::kDefer;
  config.max_defer_slots = 1;

  // Uninterrupted run, with a checkpoint and the rejection count
  // recorded after every admission.
  server::AdmissionWal wal;
  server::ServerCore core(config);
  std::vector<std::size_t> bytes_at_record;
  std::vector<std::vector<std::uint8_t>> frame_after;
  std::vector<Index> rejected_after_admit;
  Index rejects = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const auto object = static_cast<Index>(i % 2);
    wal.log_admit(object, times[i]);
    bytes_at_record.push_back(wal.bytes().size());
    if (!core.admit(object, times[i]).admitted) ++rejects;
    rejected_after_admit.push_back(rejects);
    frame_after.push_back(core.checkpoint(wal.records(), {}));
  }
  core.finish();
  ASSERT_GT(core.take_snapshot().rejected, 0);  // genuinely overloaded

  // Find a kill point where the recovered clock sees the channel busy.
  bool found = false;
  for (std::size_t kill = 4; kill < times.size(); ++kill) {
    const std::vector<std::uint8_t> durable(
        wal.bytes().begin(),
        wal.bytes().begin() +
            static_cast<std::ptrdiff_t>(bytes_at_record[kill - 1]));
    server::RecoveredCore recovered = server::recover(
        config, nullptr,
        std::vector<std::vector<std::uint8_t>>{frame_after[kill - 1]},
        {durable.data(), durable.size()});
    ASSERT_TRUE(recovered.report.used_checkpoint);
    if (!recovered.report.degraded_admissions) continue;
    found = true;

    Index rejected_after = 0;
    Index degraded_after = 0;
    for (std::size_t i = kill; i < times.size(); ++i) {
      const server::Ticket ticket =
          recovered.core->admit(static_cast<Index>(i % 2), times[i]);
      if (!ticket.admitted) ++rejected_after;
      if (ticket.degraded) ++degraded_after;
    }
    EXPECT_EQ(rejected_after, 0) << "kill=" << kill;
    EXPECT_GT(degraded_after, 0) << "kill=" << kill;
    recovered.core->finish();
    const server::Snapshot snapshot = recovered.core->take_snapshot();
    EXPECT_EQ(snapshot.total_arrivals, static_cast<Index>(times.size()));
    EXPECT_EQ(snapshot.rejected, rejected_after_admit[kill - 1]);
    EXPECT_GT(snapshot.degraded, 0);
    break;
  }
  EXPECT_TRUE(found) << "no kill point landed under capacity pressure";
}

// --- the fault-injection harness on a sessions-enabled flash crowd ----------

namespace {

sim::EngineConfig flash_crowd_config(unsigned threads) {
  sim::EngineConfig config;
  config.workload.process = sim::ArrivalProcess::kFlashCrowd;
  config.workload.objects = 10;
  config.workload.zipf_exponent = 1.0;
  config.workload.mean_gap = 0.02;
  config.workload.horizon = 6.0;
  config.workload.seed = 20260807;
  config.workload.burst_start = 1.0;
  config.workload.burst_duration = 1.0;
  config.workload.burst_multiplier = 10.0;
  config.delay = 0.05;
  config.threads = threads;
  config.churn.abandon_rate = 0.2;
  config.churn.pause_rate = 0.2;
  config.churn.seek_rate = 0.2;
  return config;
}

}  // namespace

TEST(Recovery, FaultHarnessFlashCrowdSessionsBitIdentical) {
  GreedyMergePolicy baseline_policy(merging::DyadicParams{}, /*batched=*/true);
  const sim::EngineResult baseline =
      sim::run_engine(flash_crowd_config(1), baseline_policy);
  ASSERT_GT(baseline.total_sessions, 0);
  ASSERT_GT(baseline.session_abandons + baseline.session_seeks, 0);

  // Total WAL records of the chunked drive (a fault-free harness pass).
  GreedyMergePolicy dry_policy(merging::DyadicParams{}, /*batched=*/true);
  const sim::FaultRunResult dry =
      sim::run_engine_with_faults(flash_crowd_config(1), dry_policy, {});
  EXPECT_FALSE(dry.report.crashed);
  expect_same_result(dry.result, baseline, "fault-free harness pass");
  const std::uint64_t total_records = dry.report.crash_record;
  ASSERT_GT(total_records, 8u);

  std::mt19937_64 rng(0xc4a5ULL);
  for (const unsigned threads : {1u, 2u, 4u}) {
    for (int k = 0; k < 4; ++k) {
      sim::FaultPlan plan;
      plan.crash_at_record =
          static_cast<std::int64_t>(1 + rng() % total_records);
      plan.wal_torn_bytes = static_cast<std::size_t>(rng() % 48);
      GreedyMergePolicy policy(merging::DyadicParams{}, /*batched=*/true);
      const sim::FaultRunResult faulted =
          sim::run_engine_with_faults(flash_crowd_config(threads), policy, plan);
      const std::string context =
          "threads=" + std::to_string(threads) +
          " crash@" + std::to_string(plan.crash_at_record) +
          " torn=" + std::to_string(plan.wal_torn_bytes);
      EXPECT_TRUE(faulted.report.crashed) << context;
      expect_same_result(faulted.result, baseline, context);
    }
  }
}

TEST(Recovery, FaultHarnessCorruptedCheckpointFallsBack) {
  GreedyMergePolicy baseline_policy(merging::DyadicParams{}, /*batched=*/true);
  const sim::EngineResult baseline =
      sim::run_engine(flash_crowd_config(1), baseline_policy);

  sim::FaultPlan plan;
  plan.ingest_chunks = 8;
  plan.checkpoint_every_drains = 1;
  plan.keep_checkpoints = 3;
  plan.crash_at_record = 60;
  plan.corrupt_checkpoint_byte = 97;
  GreedyMergePolicy policy(merging::DyadicParams{}, /*batched=*/true);
  const sim::FaultRunResult faulted =
      sim::run_engine_with_faults(flash_crowd_config(2), policy, plan);
  ASSERT_TRUE(faulted.report.crashed);
  ASSERT_GE(faulted.report.checkpoints_written, 2u);
  EXPECT_TRUE(faulted.report.recovery.used_checkpoint);
  EXPECT_EQ(faulted.report.recovery.checkpoint_index, 1u);
  EXPECT_EQ(faulted.report.recovery.rejected_checkpoints.size(), 1u);
  expect_same_result(faulted.result, baseline, "corrupt fallback");
}

TEST(Recovery, FaultHarnessMailboxDropsAreBoundedAndReported) {
  sim::FaultPlan plan;
  plan.mailbox_drop_rate = 0.4;
  plan.max_delivery_retries = 2;
  plan.fault_seed = 99;
  GreedyMergePolicy policy(merging::DyadicParams{}, /*batched=*/true);
  sim::EngineConfig config = flash_crowd_config(1);
  config.churn = {};  // plain arrivals: lost batches shrink totals
  const sim::FaultRunResult faulted =
      sim::run_engine_with_faults(config, policy, plan);
  EXPECT_FALSE(faulted.report.crashed);
  EXPECT_GT(faulted.report.dropped_deliveries, 0u);
  // Deterministic: the same plan reproduces the same drops and result.
  GreedyMergePolicy again_policy(merging::DyadicParams{}, /*batched=*/true);
  const sim::FaultRunResult again =
      sim::run_engine_with_faults(config, again_policy, plan);
  EXPECT_EQ(faulted.report.dropped_deliveries, again.report.dropped_deliveries);
  EXPECT_EQ(faulted.report.lost_batches, again.report.lost_batches);
  expect_same_result(faulted.result, again.result, "drop determinism");
}

// --- WAL parsing ------------------------------------------------------------

TEST(Recovery, WalPrefixesParseToCompleteRecordsOnly) {
  server::AdmissionWal wal;
  wal.log_ingest_trace(0, std::vector<double>{0.25, 0.5, 1.0});
  wal.log_admit(1, 0.75);
  wal.log_drain();
  const std::vector<std::uint8_t>& bytes = wal.bytes();

  std::vector<std::size_t> boundaries;  // byte size after each record
  {
    server::AdmissionWal replay;
    boundaries.push_back(replay.bytes().size());  // header only
    replay.log_ingest_trace(0, std::vector<double>{0.25, 0.5, 1.0});
    boundaries.push_back(replay.bytes().size());
    replay.log_admit(1, 0.75);
    boundaries.push_back(replay.bytes().size());
    replay.log_drain();
    boundaries.push_back(replay.bytes().size());
  }

  EXPECT_TRUE(server::read_wal({}).records.empty());
  for (std::size_t cut = 1; cut < boundaries.front(); ++cut) {
    EXPECT_THROW((void)server::read_wal({bytes.data(), cut}),
                 util::SnapshotError)
        << "cut=" << cut;
  }
  for (std::size_t cut = boundaries.front(); cut <= bytes.size(); ++cut) {
    const server::WalReadResult result = server::read_wal({bytes.data(), cut});
    std::size_t complete = 0;
    while (complete + 1 < boundaries.size() && boundaries[complete + 1] <= cut) {
      ++complete;
    }
    EXPECT_EQ(result.records.size(), complete) << "cut=" << cut;
    EXPECT_EQ(result.torn, cut != boundaries[complete]) << "cut=" << cut;
    EXPECT_EQ(result.dropped_bytes, cut - boundaries[complete]) << "cut=" << cut;
  }

  // A checksummed record body flipped in place is damage, not data.
  std::vector<std::uint8_t> flipped = bytes;
  flipped[boundaries[0] + 13] ^= 0x01;  // inside the first record body
  const server::WalReadResult damaged =
      server::read_wal({flipped.data(), flipped.size()});
  EXPECT_TRUE(damaged.torn);
  EXPECT_TRUE(damaged.records.empty());

  // Round-trip fidelity of the parsed records themselves.
  const server::WalReadResult parsed =
      server::read_wal({bytes.data(), bytes.size()});
  ASSERT_EQ(parsed.records.size(), 3u);
  EXPECT_EQ(parsed.records[0].type, server::WalRecordType::kIngestTrace);
  EXPECT_EQ(parsed.records[0].object, 0);
  EXPECT_EQ(parsed.records[0].times, (std::vector<double>{0.25, 0.5, 1.0}));
  EXPECT_EQ(parsed.records[1].type, server::WalRecordType::kAdmit);
  EXPECT_EQ(parsed.records[1].object, 1);
  EXPECT_EQ(parsed.records[1].times, (std::vector<double>{0.75}));
  EXPECT_EQ(parsed.records[2].type, server::WalRecordType::kDrain);
}

// --- ledger round-trip at every kill point ----------------------------------

namespace {

// A scripted mix of genuine intervals and move_end compensation pairs
// (retractions and extensions), deliberately out of time order so dirty
// buckets exist mid-stream.
struct LedgerOp {
  enum Kind { kInterval, kMoveEnd } kind = kInterval;
  double a = 0.0, b = 0.0;
  Index object = 0;
};

std::vector<LedgerOp> ledger_script() {
  return {
      {LedgerOp::kInterval, 0.1, 1.1, 0}, {LedgerOp::kInterval, 0.2, 1.2, 1},
      {LedgerOp::kInterval, 0.15, 1.15, 2}, {LedgerOp::kMoveEnd, 1.2, 0.6, 1},
      {LedgerOp::kInterval, 0.05, 1.05, 3}, {LedgerOp::kMoveEnd, 1.1, 1.6, 0},
      {LedgerOp::kInterval, 2.0, 3.0, 4}, {LedgerOp::kMoveEnd, 1.05, 0.5, 3},
      {LedgerOp::kInterval, 1.9, 2.9, 5}, {LedgerOp::kMoveEnd, 3.0, 2.2, 4},
      {LedgerOp::kInterval, 0.3, 1.3, 6}, {LedgerOp::kMoveEnd, 1.6, 1.0, 0},
  };
}

void apply_op(server::ChannelLedger& ledger, const LedgerOp& op) {
  if (op.kind == LedgerOp::kInterval) {
    ledger.add_interval(op.a, op.b, op.object);
  } else {
    ledger.move_end(op.a, op.b, op.object);
  }
}

void expect_same_answers(server::ChannelLedger& a, server::ChannelLedger& b,
                         const std::string& context) {
  EXPECT_EQ(a.peak(), b.peak()) << context;
  EXPECT_EQ(a.capacity_violations(2), b.capacity_violations(2)) << context;
  for (const double t : {0.0, 0.12, 0.55, 1.0, 1.45, 2.05, 2.5, 3.5}) {
    EXPECT_EQ(a.occupancy_at(t), b.occupancy_at(t)) << context << " t=" << t;
  }
  EXPECT_EQ(a.max_over(0.0, 4.0), b.max_over(0.0, 4.0)) << context;
  EXPECT_EQ(a.max_over(0.5, 1.5), b.max_over(0.5, 1.5)) << context;
}

}  // namespace

TEST(Recovery, LedgerMoveEndRoundTripAtEveryKillPoint) {
  const std::vector<LedgerOp> script = ledger_script();
  for (std::size_t kill = 0; kill <= script.size(); ++kill) {
    const std::string context = "kill=" + std::to_string(kill);
    // Original: killed at `kill`, saved, restored, then continued.
    server::ChannelLedger original(4.0, 0.5);
    for (std::size_t i = 0; i < kill; ++i) apply_op(original, script[i]);
    util::SnapshotWriter w;
    original.save(w);
    const std::vector<std::uint8_t> frame = w.frame("test-ledger");

    server::ChannelLedger restored(4.0, 0.5);
    util::SnapshotReader r = util::SnapshotReader::open(
        {frame.data(), frame.size()}, "test-ledger");
    restored.restore(r);
    r.expect_end();

    for (std::size_t i = kill; i < script.size(); ++i) {
      apply_op(original, script[i]);
      apply_op(restored, script[i]);
    }
    expect_same_answers(original, restored, context + " restored");

    // Fresh-rebuild recount: replaying the whole script from scratch
    // agrees with the killed-and-restored ledger on every answer.
    server::ChannelLedger fresh(4.0, 0.5);
    for (const LedgerOp& op : script) apply_op(fresh, op);
    expect_same_answers(restored, fresh, context + " fresh");
  }

  // Geometry is part of the contract: a differently-bucketed ledger
  // refuses the frame instead of misreading it.
  server::ChannelLedger saved(4.0, 0.5);
  saved.add_interval(0.1, 1.0, 0);
  util::SnapshotWriter w;
  saved.save(w);
  const std::vector<std::uint8_t> frame = w.frame("test-ledger");
  server::ChannelLedger narrow(4.0, 0.25);
  util::SnapshotReader r =
      util::SnapshotReader::open({frame.data(), frame.size()}, "test-ledger");
  EXPECT_THROW(narrow.restore(r), util::SnapshotError);
}

// --- plan codec round-trip ---------------------------------------------------

TEST(Recovery, PlanCodecRoundTripsBitIdentically) {
  const std::vector<std::vector<double>> traces = corpus_traces();
  for (const std::size_t trial : {3UL, 57UL, 120UL}) {
    for (const double L : {1e-6, 0.75, 100.0}) {
      const plan::MergePlan original =
          merging::optimal_general_forest(traces[trial], L).forest.to_plan();
      util::SnapshotWriter w;
      plan::save_plan(w, original);
      const std::vector<std::uint8_t> frame = w.frame("test-plan");
      util::SnapshotReader r = util::SnapshotReader::open(
          {frame.data(), frame.size()}, "test-plan");
      const plan::MergePlan loaded = plan::load_plan(r);
      r.expect_end();

      const std::string context =
          "trial=" + std::to_string(trial) + " L=" + std::to_string(L);
      EXPECT_EQ(loaded.size(), original.size()) << context;
      EXPECT_EQ(loaded.media_length(), original.media_length()) << context;
      EXPECT_EQ(loaded.model(), original.model()) << context;
      EXPECT_EQ(loaded.num_roots(), original.num_roots()) << context;
      EXPECT_EQ(loaded.total_cost(), original.total_cost()) << context;
      for (Index i = 0; i < original.size(); ++i) {
        const auto s = static_cast<std::size_t>(i);
        EXPECT_EQ(loaded.start()[s], original.start()[s]) << context;
        EXPECT_EQ(loaded.delay()[s], original.delay()[s]) << context;
        EXPECT_EQ(loaded.length()[s], original.length()[s]) << context;
        EXPECT_EQ(loaded.merge_time()[s], original.merge_time()[s]) << context;
        EXPECT_EQ(loaded.parent()[s], original.parent()[s]) << context;
      }
    }
  }
}

// --- fault-plan parsing ------------------------------------------------------

TEST(Recovery, ParseFaultPlanAcceptsSpecsAndRejectsGarbage) {
  const sim::FaultPlan defaults = sim::parse_fault_plan("none");
  EXPECT_EQ(defaults.crash_at_record, -1);

  const sim::FaultPlan plan =
      sim::parse_fault_plan("crash@120,torn=7,corrupt=3,drop=0.25,retries=5,"
                            "chunks=16,ckpt=4,keep=3,seed=99");
  EXPECT_EQ(plan.crash_at_record, 120);
  EXPECT_EQ(plan.wal_torn_bytes, 7u);
  EXPECT_EQ(plan.corrupt_checkpoint_byte, 3);
  EXPECT_EQ(plan.mailbox_drop_rate, 0.25);
  EXPECT_EQ(plan.max_delivery_retries, 5);
  EXPECT_EQ(plan.ingest_chunks, 16);
  EXPECT_EQ(plan.checkpoint_every_drains, 4);
  EXPECT_EQ(plan.keep_checkpoints, 3);
  EXPECT_EQ(plan.fault_seed, 99u);

  EXPECT_THROW((void)sim::parse_fault_plan("crash@"), std::invalid_argument);
  EXPECT_THROW((void)sim::parse_fault_plan("crash@12,"), std::invalid_argument);
  EXPECT_THROW((void)sim::parse_fault_plan("explode"), std::invalid_argument);
  EXPECT_THROW((void)sim::parse_fault_plan("torn=x"), std::invalid_argument);
  EXPECT_THROW((void)sim::parse_fault_plan("drop=1.5"), std::invalid_argument);
  EXPECT_THROW((void)sim::parse_fault_plan("chunks=0"), std::invalid_argument);
  EXPECT_THROW((void)sim::parse_fault_plan("wat=1"), std::invalid_argument);
}

TEST(Recovery, SingleIngestRecordsReplayAsOneArrivalTraces) {
  // A single-arrival record replays exactly like a one-element trace.
  server::ServerCoreConfig config;
  config.objects = 2;
  config.delay = 0.1;
  config.horizon = 4.0;
  GreedyMergePolicy policy(merging::DyadicParams{}, /*batched=*/true);
  GreedyMergePolicy baseline_policy(merging::DyadicParams{}, /*batched=*/true);
  server::ServerCore baseline(config, baseline_policy);
  server::AdmissionWal wal;
  for (const auto& [object, time] :
       {std::pair<Index, double>{0, 0.5}, {1, 0.75}, {0, 1.25}}) {
    wal.log_ingest(object, time);
    baseline.ingest_trace(object, {time});
  }
  wal.log_drain();
  baseline.drain();
  server::RecoveredCore recovered =
      server::recover(config, &policy, {}, {wal.bytes().data(), wal.bytes().size()});
  EXPECT_EQ(recovered.report.wal_records_replayed, 4u);
  recovered.core->finish();
  baseline.finish();
  expect_same_snapshot(recovered.core->take_snapshot(), baseline.take_snapshot(),
                       "single ingest records");
}

// --- restore preconditions ---------------------------------------------------

TEST(Recovery, RestoreRefusesUsedCoresAndForeignConfigs) {
  server::ServerCoreConfig config;
  config.objects = 2;
  config.delay = 0.1;
  config.horizon = 4.0;
  GreedyMergePolicy policy(merging::DyadicParams{}, /*batched=*/true);
  server::ServerCore core(config, policy);
  core.ingest_trace(0, {0.5});
  core.drain();
  const std::vector<std::uint8_t> frame = core.checkpoint(3);

  // A core that already served traffic refuses to be overwritten.
  GreedyMergePolicy used_policy(merging::DyadicParams{}, /*batched=*/true);
  server::ServerCore used(config, used_policy);
  used.ingest_trace(0, {0.25});
  EXPECT_THROW((void)used.restore_state({frame.data(), frame.size()}),
               std::logic_error);

  // A different catalogue is a structured mismatch, not a misread.
  server::ServerCoreConfig other = config;
  other.objects = 3;
  GreedyMergePolicy other_policy(merging::DyadicParams{}, /*batched=*/true);
  server::ServerCore foreign(other, other_policy);
  EXPECT_THROW((void)foreign.restore_state({frame.data(), frame.size()}),
               util::SnapshotError);

  // The happy path round-trips the cursor and continues identically.
  GreedyMergePolicy fresh_policy(merging::DyadicParams{}, /*batched=*/true);
  server::ServerCore fresh(config, fresh_policy);
  const server::RestoreInfo info =
      fresh.restore_state({frame.data(), frame.size()});
  EXPECT_EQ(info.wal_records, 3u);
  core.ingest_trace(1, {1.5});
  fresh.ingest_trace(1, {1.5});
  core.finish();
  fresh.finish();
  expect_same_snapshot(fresh.take_snapshot(), core.take_snapshot(),
                       "happy path");
}
