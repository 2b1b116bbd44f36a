// VoD server: a media-on-demand catalogue served live by the sharded
// incremental ServerCore (src/server/server_core.h) — the paper's
// Section-4 on-line environment as an operable service, not a post-hoc
// experiment loop.
//
// Serving modes:
//   * policy path   — any pluggable OnlinePolicy (dg | batching |
//                     greedy | greedy-batched) over a Zipf catalogue,
//                     arrivals ingested through the per-shard mailboxes;
//   * capacity path — slotted batching with a channel budget and a
//                     selectable admission mode (reject | defer |
//                     degrade | observe), decided live at admission
//                     time against the incremental channel ledger.
//
// A live stats line (current/peak channels, wait-histogram delay
// percentiles, admission counters) prints as the run progresses — the
// queries the legacy end-of-run engine could not answer.
//
// Session churn (policy path only): --sessions plus --abandon-rate /
// --pause-rate / --seek-rate switch the core onto the
// session-lifecycle path — live session counts join the stats line,
// and the end-of-run table reports the in-place plan repairs
// (truncations, re-roots, retracted cost) the churn caused.
//
// Fault injection (policy path only): --fault=crash@K[,torn=N]
// [,corrupt=I][,drop=P] runs the workload through the deterministic
// crash/recovery harness (sim/fault.h) — the run is killed after WAL
// record K, recovered from the surviving checkpoint + WAL tail, and
// finished; the recovery report prints before the usual tables.
//
// Run: ./vod_server --objects=64 --policy=greedy-batched --gap=0.002
//        --delay=0.01 --horizon=20 [--shards=4] [--seed=42]
//      ./vod_server --objects=64 --capacity=32 --mode=defer --gap=0.04
//        --delay=0.02 --horizon=20
//      ./vod_server --objects=64 --policy=greedy --sessions
//        --abandon-rate=0.2 --pause-rate=0.1 --seek-rate=0.05 --horizon=20
//      ./vod_server --objects=64 --fault=crash@200,torn=9 --horizon=20
//      ./vod_server --listen --port=7070 --reactors=2 --objects=64
//        (then: ./vod_loadgen --port=7070 --objects=64 ...)
//
// Network mode (--listen): arrivals come from clients over the binary
// admission protocol (src/net/protocol.h) instead of a generated
// workload; a client FINISH ends the run. HTTP GET /stats, /live and
// /dispatch answer JSON on the same port.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/server.h"
#include "online/policy.h"
#include "server/server_core.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/workload.h"
#include "util/cli.h"
#include "util/simd.h"
#include "util/table.h"

namespace {

using namespace smerge;

std::unique_ptr<OnlinePolicy> make_policy(const std::string& name) {
  if (name == "dg") return std::make_unique<DelayGuaranteedPolicy>();
  if (name == "batching") return std::make_unique<BatchingPolicy>();
  if (name == "greedy") {
    return std::make_unique<GreedyMergePolicy>(merging::DyadicParams{},
                                               /*batched=*/false);
  }
  if (name == "greedy-batched") {
    return std::make_unique<GreedyMergePolicy>(merging::DyadicParams{},
                                               /*batched=*/true);
  }
  throw std::invalid_argument("unknown --policy: " + name);
}

void print_live(const server::LiveStats& live, double now, bool sessions) {
  std::cout << "t=" << now << ": arrivals " << live.arrivals << ", admitted "
            << live.admitted << ", rejected " << live.rejected << ", deferred "
            << live.deferrals << ", degraded " << live.degraded << " | channels "
            << live.current_channels << " now / " << live.peak_channels
            << " peak | wait p50/p99/max " << live.wait.p50 << "/"
            << live.wait.p99 << "/" << live.wait.max << " | cost " << live.cost;
  if (sessions) {
    std::cout << " | sessions " << live.live_sessions << " live, "
              << live.session_pauses << " paused, " << live.session_seeks
              << " sought, " << live.session_abandons << " abandoned";
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace smerge::sim;

  util::ArgParser args(
      "vod_server: a live ServerCore catalogue under a pluggable policy or "
      "capacity-aware admission");
  // Batching is the default because it emits its streams at admission
  // time, so the live channel queries show the run as it happens; the
  // greedy mergers and DG resolve (or emit) their schedules at the
  // horizon, filling the ledger only at finish().
  args.add_string("policy", "batching",
                  "dg | batching | greedy | greedy-batched");
  args.add_int("objects", 64, "catalogue size (Zipf-weighted popularity)");
  args.add_double("gap", 0.002, "aggregate mean inter-arrival gap (media lengths)");
  args.add_double("delay", 0.01, "guaranteed start-up delay, fraction of the media");
  args.add_double("horizon", 20.0, "simulated time in media lengths");
  args.add_int("shards", 2, "mailbox/thread fan-out width");
  args.add_int("capacity", 0,
               "channel budget; > 0 switches to the capacity-admission path");
  args.add_string("mode", "reject",
                  "admission mode with --capacity: observe | reject | defer | "
                  "degrade");
  args.add_bool("constant", false, "constant-rate arrivals instead of Poisson");
  args.add_bool("sessions", false,
                "enable the session-lifecycle path (required by the churn "
                "rates; policy path only)");
  args.add_double("abandon-rate", 0.0,
                  "P(session departs mid-play); needs --sessions");
  args.add_double("pause-rate", 0.0, "P(session pauses once); needs --sessions");
  args.add_double("seek-rate", 0.0, "P(session seeks once); needs --sessions");
  args.add_int("seed", 42, "workload RNG seed");
  args.add_int("live-every", 4, "live stats printouts per run");
  args.add_string("fault", "none",
                  "fault spec crash@K[,torn=N][,corrupt=I][,drop=P]: run the "
                  "deterministic crash/recovery harness (policy path only)");
  args.add_bool("listen", false,
                "serve the admission protocol over TCP (arrivals come from "
                "clients, not a generated workload; see examples/vod_loadgen)");
  args.add_string("bind", "127.0.0.1", "listen address; needs --listen");
  args.add_int("port", 0, "listen port, 0 = ephemeral; needs --listen");
  args.add_int("reactors", 1, "epoll reactor threads; needs --listen");
  args.add_int("drain-us", 500, "drain cadence in microseconds; needs --listen");
  try {
    if (!args.parse(argc, argv)) {
      std::cout << args.help();
      return EXIT_SUCCESS;
    }
    WorkloadConfig workload;
    workload.process = args.get_bool("constant") ? ArrivalProcess::kConstantRate
                                                 : ArrivalProcess::kPoisson;
    workload.objects = args.get_int("objects");
    workload.mean_gap = args.get_double("gap");
    workload.horizon = args.get_double("horizon");
    workload.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    validate(workload);
    const double delay = args.get_double("delay");
    const Index capacity = args.get_int("capacity");
    SessionChurnConfig churn;
    churn.abandon_rate = args.get_double("abandon-rate");
    churn.pause_rate = args.get_double("pause-rate");
    churn.seek_rate = args.get_double("seek-rate");
    validate(churn);

    // Contradictory flag combinations are usage errors, never silent
    // reinterpretations: a clamped shard count or an ignored churn rate
    // would run a different experiment than the one asked for.
    if (args.get_int("shards") < 1) {
      throw std::invalid_argument("--shards must be >= 1");
    }
    if (args.get_int("live-every") < 1) {
      throw std::invalid_argument("--live-every must be >= 1");
    }
    if (churn.enabled() && !args.get_bool("sessions")) {
      throw std::invalid_argument(
          "session churn rates need --sessions (the session-lifecycle path "
          "must be opted into, not inferred)");
    }
    if (args.get_bool("sessions") && !churn.enabled()) {
      throw std::invalid_argument(
          "--sessions needs at least one positive churn rate "
          "(--abandon-rate / --pause-rate / --seek-rate)");
    }
    if (args.provided("mode") && capacity <= 0) {
      throw std::invalid_argument(
          "--mode selects the capacity-admission behaviour; it needs "
          "--capacity > 0");
    }
    if (capacity > 0 && args.provided("shards")) {
      throw std::invalid_argument(
          "the capacity path is serial (admission order is decision "
          "order); drop --shards");
    }
    if (churn.enabled() && capacity > 0) {
      throw std::invalid_argument(
          "session churn runs on the policy path; drop --capacity");
    }
    if (args.provided("fault") && capacity > 0) {
      throw std::invalid_argument(
          "--fault drives the policy path through the crash/recovery "
          "harness; drop --capacity");
    }
    const bool listen = args.get_bool("listen");
    for (const char* flag : {"bind", "port", "reactors", "drain-us"}) {
      if (args.provided(flag) && !listen) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " configures the network front end; it "
                                    "needs --listen");
      }
    }
    if (listen) {
      if (args.provided("fault")) {
        throw std::invalid_argument(
            "--fault replays a generated workload through the crash "
            "harness; --listen serves live arrivals — drop one");
      }
      if (capacity > 0 || args.provided("mode")) {
        throw std::invalid_argument(
            "the network front end runs the policy path; drop "
            "--capacity/--mode");
      }
      if (args.get_bool("sessions")) {
        throw std::invalid_argument(
            "the wire protocol carries bare admissions, not session "
            "lifecycles; drop --sessions");
      }
      for (const char* flag : {"gap", "constant", "seed", "live-every"}) {
        if (args.provided(flag)) {
          throw std::invalid_argument(
              std::string("--listen takes arrivals from clients; --") + flag +
              " would configure a generated workload and have no effect");
        }
      }
      if (args.get_int("reactors") < 1) {
        throw std::invalid_argument("--reactors must be >= 1");
      }
      if (args.get_int("drain-us") < 1) {
        throw std::invalid_argument("--drain-us must be >= 1");
      }
      if (args.get_int("port") < 0 || args.get_int("port") > 65535) {
        throw std::invalid_argument("--port must be in [0, 65535]");
      }
    }
    const int checkpoints = static_cast<int>(args.get_int("live-every"));
    const unsigned shards = static_cast<unsigned>(args.get_int("shards"));

    if (listen) {
      // Network front end: arrivals arrive over TCP, a client FINISH
      // ends the run. EADDRINUSE (and any other bind failure) throws
      // out of start() into the error handler below.
      std::unique_ptr<OnlinePolicy> policy =
          make_policy(args.get_string("policy"));
      server::ServerCoreConfig config;
      config.objects = workload.objects;
      config.delay = delay;
      config.horizon = workload.horizon;
      config.shards = shards;
      net::NetServerConfig net;
      net.host = args.get_string("bind");
      net.port = static_cast<std::uint16_t>(args.get_int("port"));
      net.reactors = static_cast<unsigned>(args.get_int("reactors"));
      net.drain_interval_us =
          static_cast<std::uint64_t>(args.get_int("drain-us"));
      net::NetServer server(net, config, *policy);
      server.start();
      std::cout << "listening on " << net.host << ":" << server.port() << " ("
                << policy->name() << ", " << workload.objects << " objects over "
                << shards << " shards, " << net.reactors
                << " reactors, drain every " << net.drain_interval_us
                << " us)\nadmission protocol SMN1; HTTP GET /stats /live "
                   "/dispatch on the same port; a client FINISH ends the run\n"
                << std::flush;
      while (!server.wait_finished(std::chrono::seconds(1))) {
        const net::NetCounters c = server.counters();
        const server::LiveStats live = server.live();
        std::cout << "conns " << c.accepted - c.closed << " open / "
                  << c.accepted << " accepted | admits " << c.admits
                  << ", tickets " << c.tickets << ", drains " << c.drains
                  << " | arrivals " << live.arrivals << ", wait p99 "
                  << live.wait.p99 << " | bytes " << c.bytes_in << " in / "
                  << c.bytes_out << " out\n"
                  << std::flush;
      }
      if (!server.error().empty()) {
        std::cerr << "error: " << server.error() << '\n';
        return EXIT_FAILURE;
      }
      const server::WireSummary& sum = server.summary();
      const server::Snapshot& snap = server.snapshot();
      std::cout << "\n";
      util::TextTable table({"arrivals", "streams", "streams served",
                             "peak channels", "p99 wait", "max wait",
                             "violations"});
      table.add_row(snap.total_arrivals, snap.total_streams,
                    snap.streams_served, snap.peak_concurrency,
                    util::format_fixed(snap.wait.p99, 5),
                    util::format_fixed(snap.wait.max, 5),
                    snap.guarantee_violations);
      std::cout << table.to_string() << "\nsnapshot digest " << std::hex
                << sum.digest << std::dec
                << " (compare against a trace-fed run or vod_loadgen "
                   "--verify)\n";
      server.stop();
      return EXIT_SUCCESS;
    }

    if (args.provided("fault")) {
      // Crash/recovery harness: the whole workload through
      // run_engine_with_faults, recovery report included.
      const sim::FaultPlan plan = parse_fault_plan(args.get_string("fault"));
      EngineConfig engine;
      engine.workload = workload;
      engine.delay = delay;
      engine.threads = shards;
      engine.churn = churn;
      std::unique_ptr<OnlinePolicy> policy =
          make_policy(args.get_string("policy"));
      std::cout << "fault harness: " << policy->name() << ", "
                << workload.objects << " objects over " << shards
                << " shards, fault '" << args.get_string("fault") << "'\n\n";
      const FaultRunResult run = run_engine_with_faults(engine, *policy, plan);
      const FaultReport& report = run.report;
      if (report.crashed) {
        std::cout << "crashed at WAL record " << report.crash_record << " ("
                  << report.checkpoints_written << " checkpoints written)\n"
                  << "recovery: "
                  << (report.recovery.used_checkpoint
                          ? "checkpoint #" +
                                std::to_string(report.recovery.checkpoint_index)
                          : std::string("cold start"))
                  << ", " << report.recovery.rejected_checkpoints.size()
                  << " candidates rejected, "
                  << report.recovery.wal_records_replayed
                  << " WAL records replayed"
                  << (report.recovery.wal_torn
                          ? ", torn tail of " +
                                std::to_string(
                                    report.recovery.wal_dropped_bytes) +
                                " bytes dropped"
                          : std::string())
                  << "\nre-fed " << report.refed_batches
                  << " per-object remainders\n";
      } else {
        std::cout << "fault never fired (crash point past the run)\n";
      }
      if (report.dropped_deliveries > 0) {
        std::cout << "mailbox faults: " << report.dropped_deliveries
                  << " deliveries dropped, " << report.lost_batches
                  << " batches lost after retries\n";
      }
      const EngineResult& r = run.result;
      std::cout << "\n";
      util::TextTable table({"arrivals", "streams", "streams served",
                             "peak channels", "p99 wait", "max wait",
                             "violations"});
      table.add_row(r.total_arrivals, r.total_streams, r.streams_served,
                    r.peak_concurrency, util::format_fixed(r.wait.p99, 5),
                    util::format_fixed(r.wait.max, 5), r.guarantee_violations);
      std::cout << table.to_string();
      if (r.total_sessions > 0) {
        std::cout << "\nsession lifecycle: " << r.total_sessions
                  << " sessions, " << r.session_pauses << " pauses, "
                  << r.session_seeks << " seeks, " << r.session_abandons
                  << " abandons\n";
      }
      return EXIT_SUCCESS;
    }

    const std::vector<double> weights =
        zipf_weights(workload.objects, workload.zipf_exponent);
    std::vector<std::vector<double>> traces(
        static_cast<std::size_t>(workload.objects));
    for (Index m = 0; m < workload.objects; ++m) {
      traces[static_cast<std::size_t>(m)] =
          generate_arrivals(workload, m, weights[static_cast<std::size_t>(m)]);
    }

    std::unique_ptr<server::ServerCore> core;
    std::unique_ptr<OnlinePolicy> policy;
    if (capacity > 0) {
      // Capacity path: slotted batching + live admission decisions.
      const std::string mode = args.get_string("mode");
      server::ServerCoreConfig config;
      config.objects = workload.objects;
      config.delay = delay;
      config.horizon = workload.horizon;
      config.serve = server::ServeMode::kSlottedBatching;
      config.channel_capacity = capacity;
      if (mode == "observe") {
        config.admission = server::AdmissionMode::kObserve;
      } else if (mode == "reject") {
        config.admission = server::AdmissionMode::kReject;
      } else if (mode == "defer") {
        config.admission = server::AdmissionMode::kDefer;
      } else if (mode == "degrade") {
        config.admission = server::AdmissionMode::kDegrade;
      } else {
        throw std::invalid_argument("unknown --mode: " + mode);
      }
      core = std::make_unique<server::ServerCore>(config);
      std::cout << "capacity path: " << capacity << " channels, mode "
                << server::to_string(config.admission) << ", "
                << workload.objects << " objects, delay " << delay << "\n\n";

      // Admission order is global arrival order: merge the traces.
      std::vector<std::pair<double, Index>> arrivals;
      for (Index m = 0; m < workload.objects; ++m) {
        for (const double t : traces[static_cast<std::size_t>(m)]) {
          arrivals.push_back({t, m});
        }
      }
      std::sort(arrivals.begin(), arrivals.end());
      const std::size_t step =
          std::max<std::size_t>(1, arrivals.size() / static_cast<std::size_t>(
                                                         checkpoints));
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        (void)core->admit(arrivals[i].second, arrivals[i].first);
        if ((i + 1) % step == 0) {
          print_live(core->live_stats(), arrivals[i].first, false);
        }
      }
    } else {
      // Policy path: mailbox ingest in horizon chunks with live stats
      // between drains.
      policy = make_policy(args.get_string("policy"));
      server::ServerCoreConfig config;
      config.objects = workload.objects;
      config.delay = delay;
      config.horizon = workload.horizon;
      config.shards = shards;
      config.enable_sessions = churn.enabled();
      core = std::make_unique<server::ServerCore>(config, *policy);
      std::cout << "policy path: " << policy->name() << ", " << workload.objects
                << " objects over " << config.shards << " shards, delay "
                << delay;
      // The ledger kernel the SIMD dispatcher picked, so a log line
      // records which one this run exercised.
      std::cout << "\nhot path: ledger kernel " << util::simd::active_kernel()
                << " (" << util::simd::lanes() << " lanes)";
      if (churn.enabled()) {
        std::cout << ", churn abandon/pause/seek " << churn.abandon_rate << "/"
                  << churn.pause_rate << "/" << churn.seek_rate;
      }
      std::cout << "\n\n";

      // Under churn each client is a full session trace (arrival plus
      // its pause/seek/abandon events); without it, a bare arrival.
      std::vector<std::vector<SessionTrace>> sessions(
          static_cast<std::size_t>(churn.enabled() ? workload.objects : 0));
      for (Index m = 0; m < workload.objects && churn.enabled(); ++m) {
        sessions[static_cast<std::size_t>(m)] = generate_sessions(
            workload, churn, m, weights[static_cast<std::size_t>(m)]);
      }

      std::vector<std::size_t> cursor(traces.size(), 0);
      for (int chunk = 1; chunk <= checkpoints; ++chunk) {
        // The final chunk uses the horizon exactly: a rounded-down
        // boundary would silently drop tail arrivals.
        const double until = chunk == checkpoints
                                 ? workload.horizon
                                 : workload.horizon * chunk / checkpoints;
        for (Index m = 0; m < workload.objects; ++m) {
          auto& at = cursor[static_cast<std::size_t>(m)];
          if (churn.enabled()) {
            auto& trace = sessions[static_cast<std::size_t>(m)];
            std::vector<SessionTrace> slice;
            while (at < trace.size() && trace[at].arrival <= until) {
              slice.push_back(std::move(trace[at]));
              ++at;
            }
            core->ingest_session_trace(m, std::move(slice));
          } else {
            auto& trace = traces[static_cast<std::size_t>(m)];
            std::vector<double> slice;
            while (at < trace.size() && trace[at] <= until) {
              slice.push_back(trace[at]);
              ++at;
            }
            core->ingest_trace(m, std::move(slice));
          }
        }
        core->drain();
        print_live(core->live_stats(), until, churn.enabled());
      }
    }

    core->finish();
    const server::Snapshot snap = core->take_snapshot();
    std::cout << "\n";
    util::TextTable table({"arrivals", "admitted", "rejected", "streams",
                           "streams served", "peak channels", "p99 wait",
                           "max wait", "violations"});
    table.add_row(snap.total_arrivals, snap.total_arrivals - snap.rejected,
                  snap.rejected, snap.total_streams, snap.streams_served,
                  snap.peak_concurrency, util::format_fixed(snap.wait.p99, 5),
                  util::format_fixed(snap.wait.max, 5),
                  snap.guarantee_violations);
    std::cout << table.to_string();
    if (snap.total_sessions > 0) {
      std::cout << "\nsession lifecycle: " << snap.total_sessions
                << " sessions, " << snap.session_pauses << " pauses, "
                << snap.session_seeks << " seeks, " << snap.session_abandons
                << " abandons\n"
                << "plan repair: " << snap.plan_truncations << " truncations, "
                << snap.plan_reroots << " re-roots, retracted "
                << util::format_fixed(snap.retracted_cost, 3)
                << " media units, extended "
                << util::format_fixed(snap.extended_cost, 3) << "\n";
    }
    std::cout << "\ntop objects by transmitted media units:\n";
    for (Index m = 0; m < std::min<Index>(5, workload.objects); ++m) {
      const server::ObjectOutcome& o = snap.per_object[static_cast<std::size_t>(m)];
      std::cout << "  object " << m << ": " << o.arrivals << " arrivals, "
                << o.streams << " streams, cost " << o.cost << ", own peak "
                << o.peak_concurrency << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
