#include "sim/fault.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "util/parallel.h"
#include "util/rng.h"
#include "util/snapshot.h"

namespace smerge::sim {

namespace {

// The driver's checkpoint-time extension: the chunk the next drain
// boundary belongs to plus each object's trace cursor (arrivals or
// sessions already handed to the core). Restored verbatim by recovery
// and advanced by the replayed WAL tail.
std::vector<std::uint8_t> encode_driver_blob(
    std::uint64_t next_chunk, const std::vector<std::uint64_t>& cursors) {
  util::SnapshotWriter w;
  w.u64(next_chunk);
  w.u64(cursors.size());
  for (const std::uint64_t c : cursors) w.u64(c);
  const auto payload = w.payload();
  return {payload.begin(), payload.end()};
}

struct DriverCursor {
  std::uint64_t next_chunk = 0;
  std::vector<std::uint64_t> cursors;
};

DriverCursor decode_driver_blob(std::span<const std::uint8_t> blob,
                                std::size_t n_objects) {
  DriverCursor out;
  out.cursors.assign(n_objects, 0);
  if (blob.empty()) return out;
  util::SnapshotReader r(blob);
  out.next_chunk = r.u64();
  const std::uint64_t n = r.u64();
  if (n != n_objects) {
    throw util::SnapshotError("fault driver blob: object count mismatch");
  }
  for (std::uint64_t i = 0; i < n; ++i) out.cursors[i] = r.u64();
  r.expect_end();
  return out;
}

}  // namespace

void validate(const FaultPlan& plan) {
  if (plan.ingest_chunks < 1) {
    throw std::invalid_argument("fault plan: ingest_chunks must be >= 1");
  }
  if (plan.checkpoint_every_drains < 1) {
    throw std::invalid_argument(
        "fault plan: checkpoint_every_drains must be >= 1");
  }
  if (plan.keep_checkpoints < 1) {
    throw std::invalid_argument("fault plan: keep_checkpoints must be >= 1");
  }
  if (!(plan.mailbox_drop_rate >= 0.0) || !(plan.mailbox_drop_rate < 1.0)) {
    throw std::invalid_argument(
        "fault plan: mailbox_drop_rate must be in [0, 1)");
  }
  if (plan.max_delivery_retries < 0) {
    throw std::invalid_argument(
        "fault plan: max_delivery_retries must be >= 0");
  }
}

FaultRunResult run_engine_with_faults(const EngineConfig& config,
                                      OnlinePolicy& policy,
                                      const FaultPlan& plan) {
  validate(config.workload);
  validate(plan);
  if (config.threads < 1) {
    throw std::invalid_argument("engine: threads must be >= 1");
  }
  if (config.channel_capacity < 0) {
    throw std::invalid_argument("engine: channel_capacity must be >= 0");
  }
  const server::ServerCoreConfig core_cfg = core_config(config);
  const bool sessions = config.churn.enabled();
  const auto n_objects = static_cast<std::size_t>(config.workload.objects);

  // Full traces up front, exactly as run_engine generates them — the
  // deterministic source the WAL-and-re-feed loop draws from.
  const std::vector<double> weights =
      zipf_weights(config.workload.objects, config.workload.zipf_exponent);
  std::vector<std::vector<double>> arrival_traces(sessions ? 0 : n_objects);
  std::vector<std::vector<SessionTrace>> session_traces(sessions ? n_objects : 0);
  util::parallel_for(
      0, static_cast<std::int64_t>(n_objects),
      [&](std::int64_t i) {
        const auto m = static_cast<std::size_t>(i);
        if (sessions) {
          session_traces[m] = generate_sessions(config.workload, config.churn,
                                                static_cast<Index>(i), weights[m]);
        } else {
          arrival_traces[m] =
              generate_arrivals(config.workload, static_cast<Index>(i), weights[m]);
        }
      },
      config.threads);
  const auto trace_size = [&](std::size_t m) {
    return sessions ? session_traces[m].size() : arrival_traces[m].size();
  };
  const auto arrival_of = [&](std::size_t m, std::uint64_t i) {
    return sessions ? session_traces[m][static_cast<std::size_t>(i)].arrival
                    : arrival_traces[m][static_cast<std::size_t>(i)];
  };

  FaultRunResult out;
  server::AdmissionWal wal;
  std::deque<std::vector<std::uint8_t>> checkpoints;  // newest at front
  std::vector<std::uint64_t> cursors(n_objects, 0);
  util::SplitMix64 drop_rng(plan.fault_seed);
  auto core = std::make_unique<server::ServerCore>(core_cfg, policy);

  const auto crash_due = [&] {
    return plan.crash_at_record >= 0 &&
           wal.records() >= static_cast<std::uint64_t>(plan.crash_at_record);
  };
  // One mailbox delivery with the drop fault: each attempt may fail;
  // after the retries the batch is lost (WAL still carries it, so a
  // *crash* would redeliver — the in-run loss models a dead letter).
  const auto deliver = [&](auto&& apply) {
    for (int attempt = 0; attempt <= plan.max_delivery_retries; ++attempt) {
      if (plan.mailbox_drop_rate > 0.0 &&
          drop_rng.next_double() < plan.mailbox_drop_rate) {
        ++out.report.dropped_deliveries;
        continue;
      }
      apply();
      return;
    }
    ++out.report.lost_batches;
  };

  bool crashed = false;
  try {
    const double chunk_span =
        config.workload.horizon / static_cast<double>(plan.ingest_chunks);
    int drains = 0;
    for (int c = 0; c < plan.ingest_chunks; ++c) {
      const double upper = c + 1 == plan.ingest_chunks
                               ? std::numeric_limits<double>::infinity()
                               : chunk_span * static_cast<double>(c + 1);
      for (std::size_t m = 0; m < n_objects; ++m) {
        std::uint64_t end = cursors[m];
        while (end < trace_size(m) && arrival_of(m, end) <= upper) ++end;
        if (end == cursors[m]) continue;
        const auto object = static_cast<Index>(m);
        if (sessions) {
          const std::vector<SessionTrace> batch(
              session_traces[m].begin() +
                  static_cast<std::ptrdiff_t>(cursors[m]),
              session_traces[m].begin() + static_cast<std::ptrdiff_t>(end));
          wal.log_ingest_sessions(object, batch);
          if (crash_due()) throw InjectedCrash();
          deliver([&] { core->ingest_session_trace(object, batch); });
        } else {
          const std::span<const double> batch{
              arrival_traces[m].data() + cursors[m],
              static_cast<std::size_t>(end - cursors[m])};
          wal.log_ingest_trace(object, batch);
          if (crash_due()) throw InjectedCrash();
          deliver([&] {
            core->ingest_trace(object, {batch.begin(), batch.end()});
          });
        }
        cursors[m] = end;
      }
      wal.log_drain();
      if (crash_due()) throw InjectedCrash();
      core->drain();
      ++drains;
      if (drains % plan.checkpoint_every_drains == 0) {
        checkpoints.push_front(core->checkpoint(
            wal.records(),
            encode_driver_blob(static_cast<std::uint64_t>(c + 1), cursors)));
        while (checkpoints.size() >
               static_cast<std::size_t>(plan.keep_checkpoints)) {
          checkpoints.pop_back();
        }
        ++out.report.checkpoints_written;
      }
    }
  } catch (const InjectedCrash&) {
    crashed = true;
  }
  out.report.crashed = crashed;
  out.report.crash_record = wal.records();

  if (crashed) {
    // The durable artifacts at the crash: the WAL possibly missing a
    // torn suffix (header always survives — shorter is not a crash
    // artifact but a wrong file), checkpoints possibly corrupted.
    std::vector<std::uint8_t> durable_wal = wal.bytes();
    if (plan.wal_torn_bytes > 0 && durable_wal.size() > 16) {
      durable_wal.resize(
          std::max<std::size_t>(16, durable_wal.size() - plan.wal_torn_bytes));
    }
    std::vector<std::vector<std::uint8_t>> candidates(checkpoints.begin(),
                                                      checkpoints.end());
    if (plan.corrupt_checkpoint_byte >= 0 && !candidates.empty() &&
        !candidates.front().empty()) {
      auto& newest = candidates.front();
      newest[static_cast<std::size_t>(plan.corrupt_checkpoint_byte) %
             newest.size()] ^= 0xff;
    }

    server::RecoveredCore recovered = server::recover(
        core_cfg, &policy, candidates, {durable_wal.data(), durable_wal.size()});
    out.report.recovery = std::move(recovered.report);
    core = std::move(recovered.core);

    // Resume cursors: what the restored checkpoint had seen, advanced
    // by every replayed ingest record. Records torn off the WAL tail
    // are simply regenerated from the deterministic traces below.
    DriverCursor resume = decode_driver_blob(
        {recovered.driver_blob.data(), recovered.driver_blob.size()},
        n_objects);
    for (const server::WalRecord& record : recovered.replayed) {
      const auto m = static_cast<std::size_t>(record.object);
      switch (record.type) {
        case server::WalRecordType::kIngest:
        case server::WalRecordType::kAdmit:
          resume.cursors[m] += 1;
          break;
        case server::WalRecordType::kIngestTrace:
          resume.cursors[m] += record.times.size();
          break;
        case server::WalRecordType::kIngestSessions:
          resume.cursors[m] += record.sessions.size();
          break;
        case server::WalRecordType::kDrain:
          break;
      }
    }
    for (std::size_t m = 0; m < n_objects; ++m) {
      if (resume.cursors[m] >= trace_size(m)) continue;
      const auto object = static_cast<Index>(m);
      const auto from = static_cast<std::ptrdiff_t>(resume.cursors[m]);
      if (sessions) {
        core->ingest_session_trace(
            object, {session_traces[m].begin() + from, session_traces[m].end()});
      } else {
        core->ingest_trace(
            object, {arrival_traces[m].begin() + from, arrival_traces[m].end()});
      }
      ++out.report.refed_batches;
    }
  }

  core->finish();
  out.result = core->take_snapshot();
  return out;
}

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty() || spec == "none") return plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string token = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (token.empty()) {
      throw std::invalid_argument("--fault: empty clause in '" + spec + "'");
    }
    const auto number = [&](const std::string& text) {
      std::size_t used = 0;
      long long value = 0;
      try {
        value = std::stoll(text, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (text.empty() || used != text.size()) {
        throw std::invalid_argument("--fault: bad number '" + text + "' in '" +
                                    spec + "'");
      }
      return value;
    };
    if (token.rfind("crash@", 0) == 0) {
      plan.crash_at_record = number(token.substr(6));
      continue;
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("--fault: bad clause '" + token +
                                  "' (expected crash@K or key=value)");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "torn") {
      const long long n = number(value);
      if (n < 0) throw std::invalid_argument("--fault: torn must be >= 0");
      plan.wal_torn_bytes = static_cast<std::size_t>(n);
    } else if (key == "corrupt") {
      plan.corrupt_checkpoint_byte = number(value);
    } else if (key == "drop") {
      std::size_t used = 0;
      double rate = 0.0;
      try {
        rate = std::stod(value, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (value.empty() || used != value.size()) {
        throw std::invalid_argument("--fault: bad number '" + value + "' in '" +
                                    spec + "'");
      }
      plan.mailbox_drop_rate = rate;
    } else if (key == "retries") {
      plan.max_delivery_retries = static_cast<int>(number(value));
    } else if (key == "chunks") {
      plan.ingest_chunks = static_cast<int>(number(value));
    } else if (key == "ckpt") {
      plan.checkpoint_every_drains = static_cast<int>(number(value));
    } else if (key == "keep") {
      plan.keep_checkpoints = static_cast<int>(number(value));
    } else if (key == "seed") {
      plan.fault_seed = static_cast<std::uint64_t>(number(value));
    } else {
      throw std::invalid_argument("--fault: unknown key '" + key + "'");
    }
  }
  validate(plan);
  return plan;
}

}  // namespace smerge::sim
