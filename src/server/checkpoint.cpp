#include "server/checkpoint.h"

#include <utility>

#include "core/plan_io.h"
#include "util/snapshot.h"

namespace smerge::server {

namespace {

// "SMWL" little-endian — WAL header magic.
constexpr std::uint32_t kWalMagic = 0x4c574d53u;
constexpr std::uint32_t kWalVersion = 1;
constexpr std::size_t kWalHeaderBytes = 16;  // magic + version + checksum
constexpr std::size_t kRecordHeaderBytes = 12;  // u32 length + u64 checksum

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

[[nodiscard]] WalRecord parse_record(std::span<const std::uint8_t> payload) {
  util::SnapshotReader r(payload);
  WalRecord record;
  const std::uint8_t tag = r.u8();
  switch (tag) {
    case 1:
      record.type = WalRecordType::kIngest;
      record.object = r.i64();
      record.times.push_back(r.f64());
      break;
    case 2:
      record.type = WalRecordType::kIngestTrace;
      record.object = r.i64();
      record.times = r.f64_vec();
      break;
    case 3:
      record.type = WalRecordType::kIngestSessions;
      record.object = r.i64();
      record.sessions = plan::load_session_traces(r);
      break;
    case 4:
      record.type = WalRecordType::kAdmit;
      record.object = r.i64();
      record.times.push_back(r.f64());
      break;
    case 5:
      record.type = WalRecordType::kDrain;
      break;
    default:
      throw util::SnapshotError("wal: bad record type " + std::to_string(tag));
  }
  r.expect_end();
  return record;
}

}  // namespace

AdmissionWal::AdmissionWal() {
  append_u32(bytes_, kWalMagic);
  append_u32(bytes_, kWalVersion);
  append_u64(bytes_, util::fnv1a64({bytes_.data(), 8}));
}

void AdmissionWal::append_record(std::span<const std::uint8_t> payload) {
  append_u32(bytes_, static_cast<std::uint32_t>(payload.size()));
  append_u64(bytes_, util::fnv1a64(payload));
  bytes_.insert(bytes_.end(), payload.begin(), payload.end());
  ++records_;
}

void AdmissionWal::log_ingest(Index object, double time) {
  util::SnapshotWriter w;
  w.u8(1);
  w.i64(object);
  w.f64(time);
  append_record(w.payload());
}

void AdmissionWal::log_ingest_trace(Index object,
                                    std::span<const double> times) {
  util::SnapshotWriter w;
  w.u8(2);
  w.i64(object);
  w.f64_vec(times);
  append_record(w.payload());
}

void AdmissionWal::log_ingest_sessions(Index object,
                                       std::span<const SessionTrace> sessions) {
  util::SnapshotWriter w;
  w.u8(3);
  w.i64(object);
  plan::save_session_traces(w, sessions);
  append_record(w.payload());
}

void AdmissionWal::log_admit(Index object, double time) {
  util::SnapshotWriter w;
  w.u8(4);
  w.i64(object);
  w.f64(time);
  append_record(w.payload());
}

void AdmissionWal::log_drain() {
  util::SnapshotWriter w;
  w.u8(5);
  append_record(w.payload());
}

void AdmissionWal::commit_to_file(const std::string& path, bool fsync) const {
  util::write_bytes_file(path, {bytes_.data(), bytes_.size()}, fsync);
}

WalReadResult read_wal(std::span<const std::uint8_t> bytes) {
  WalReadResult result;
  if (bytes.empty()) return result;
  if (bytes.size() < kWalHeaderBytes) {
    throw util::SnapshotError("wal: header truncated");
  }
  util::SnapshotReader header(bytes.first(kWalHeaderBytes));
  if (header.u32() != kWalMagic) {
    throw util::SnapshotError("wal: bad magic");
  }
  if (const std::uint32_t version = header.u32(); version != kWalVersion) {
    throw util::SnapshotError("wal: unsupported version " +
                              std::to_string(version));
  }
  if (header.u64() != util::fnv1a64(bytes.first(8))) {
    throw util::SnapshotError("wal: header checksum mismatch");
  }

  std::size_t pos = kWalHeaderBytes;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kRecordHeaderBytes) break;  // torn mid-header
    util::SnapshotReader frame(bytes.subspan(pos, kRecordHeaderBytes));
    const std::uint32_t length = frame.u32();
    const std::uint64_t checksum = frame.u64();
    if (length > bytes.size() - pos - kRecordHeaderBytes) break;  // torn body
    const auto payload = bytes.subspan(pos + kRecordHeaderBytes, length);
    if (util::fnv1a64(payload) != checksum) break;  // corrupt record
    WalRecord record;
    try {
      record = parse_record(payload);
    } catch (const util::SnapshotError&) {
      break;  // checksummed but malformed — treat as damage, drop the tail
    }
    result.records.push_back(std::move(record));
    pos += kRecordHeaderBytes + length;
  }
  result.dropped_bytes = bytes.size() - pos;
  result.torn = result.dropped_bytes > 0;
  return result;
}

RecoveredCore recover(
    const ServerCoreConfig& config, OnlinePolicy* policy,
    std::span<const std::vector<std::uint8_t>> checkpoints_newest_first,
    std::span<const std::uint8_t> wal, const RecoveryOptions& options) {
  RecoveredCore out;
  const auto make_core = [&] {
    return config.serve == ServeMode::kPolicy
               ? std::make_unique<ServerCore>(config, *policy)
               : std::make_unique<ServerCore>(config);
  };
  if (config.serve == ServeMode::kPolicy && policy == nullptr) {
    throw std::invalid_argument("recover: ServeMode::kPolicy needs a policy");
  }

  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < checkpoints_newest_first.size(); ++i) {
    auto core = make_core();
    try {
      RestoreInfo info = core->restore_state(
          {checkpoints_newest_first[i].data(), checkpoints_newest_first[i].size()});
      out.core = std::move(core);
      out.report.used_checkpoint = true;
      out.report.checkpoint_index = i;
      out.driver_blob = std::move(info.driver_blob);
      covered = info.wal_records;
      break;
    } catch (const util::SnapshotError& e) {
      out.report.rejected_checkpoints.emplace_back(e.what());
    }
  }
  if (out.core == nullptr) out.core = make_core();  // cold start

  WalReadResult parsed = read_wal(wal);
  out.report.wal_records_total = parsed.records.size();
  out.report.wal_dropped_bytes = parsed.dropped_bytes;
  out.report.wal_torn = parsed.torn;
  for (std::size_t i = static_cast<std::size_t>(
           covered < parsed.records.size() ? covered : parsed.records.size());
       i < parsed.records.size(); ++i) {
    WalRecord& record = parsed.records[i];
    switch (record.type) {
      case WalRecordType::kIngest:  // one arrival: a one-element trace
      case WalRecordType::kIngestTrace:
        out.core->ingest_trace(record.object, record.times);
        break;
      case WalRecordType::kIngestSessions:
        // Copied, not moved: the replayed record keeps its sessions so
        // the driver can derive per-object resume cursors from it.
        out.core->ingest_session_trace(record.object, record.sessions);
        break;
      case WalRecordType::kAdmit:
        (void)out.core->admit(record.object, record.times.front());
        break;
      case WalRecordType::kDrain:
        out.core->drain();
        break;
    }
    ++out.report.wal_records_replayed;
    out.replayed.push_back(std::move(record));
  }

  if (options.degrade_under_pressure && config.channel_capacity > 0 &&
      (config.admission == AdmissionMode::kReject ||
       config.admission == AdmissionMode::kDefer)) {
    const LiveStats live = out.core->live_stats();
    if (live.current_channels >= config.channel_capacity) {
      out.core->degrade_admissions();
      out.report.degraded_admissions = true;
    }
  }
  return out;
}

}  // namespace smerge::server
