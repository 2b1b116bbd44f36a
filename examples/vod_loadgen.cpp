// Closed-loop load generator for the vod_server network front end.
//
// Generates the same Zipf/Poisson catalogue workload the in-process
// examples use, partitions the objects round-robin over N connections
// (each connection's streams merged into nondecreasing time order — the
// wire contract and the core's per-object contract in one move), and
// drives them from one thread per connection in a closed loop: at most
// kWindow admissions outstanding per connection, so throughput is set
// by the server's round-trip — the paper's "client waits for its
// start-up slot" shape. --churn-every=N closes and reopens each
// connection every N admissions (outstanding tickets are collected
// first, so no admission is ever unacknowledged — and per-object order
// survives because an object never leaves its connection).
//
// Reports aggregate admissions/s and client-observed ticket latency
// percentiles (admit-send to TICKET-decode), then drives the FINISH
// handshake and prints the server's summary.
//
// --verify recomputes the run in process (serial ingest_trace of the
// same workload) and exits non-zero unless the server's FINISHED digest
// matches — wire-fed and trace-fed runs must be byte-identical. The
// server must have been started with the same --objects/--delay/
// --horizon/--policy for the comparison to be meaningful.
//
// Run: ./vod_server --listen --port=7070 --objects=64 &
//      ./vod_loadgen --port=7070 --objects=64 --connections=4 --verify
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.h"
#include "online/policy.h"
#include "server/server_core.h"
#include "server/wire.h"
#include "sim/workload.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace smerge;
using clock_type = std::chrono::steady_clock;

/// Admissions outstanding per connection before the client blocks on
/// its tickets.
constexpr std::uint64_t kWindow = 8192;

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

struct ClientOutcome {
  std::uint64_t sent = 0;
  std::uint64_t ticketed = 0;
  std::uint64_t reconnects = 0;
  std::vector<double> latencies_ns;
};

struct ClientPlan {
  std::vector<std::pair<double, Index>> sends;  ///< nondecreasing time
  std::string host;
  std::uint16_t port = 0;
  std::uint64_t churn_every = 0;  ///< 0 = never reconnect
};

ClientOutcome run_client(const ClientPlan& plan) {
  ClientOutcome out;
  out.latencies_ns.reserve(plan.sends.size());
  std::vector<clock_type::time_point> sent_at(plan.sends.size());
  net::BlockingClient client;
  client.connect(plan.host, plan.port);
  std::uint64_t acked = 0;
  const auto on_ticket = [&](const net::TicketReply& reply) {
    const auto idx = static_cast<std::size_t>(reply.request_id - 1);
    out.latencies_ns.push_back(std::chrono::duration<double, std::nano>(
                                   clock_type::now() - sent_at[idx])
                                   .count());
    ++out.ticketed;
  };
  const auto collect_all = [&] {
    client.flush();
    while (acked < out.sent) acked += client.poll_tickets(on_ticket);
  };
  for (const auto& [time, object] : plan.sends) {
    if (plan.churn_every > 0 && out.sent > 0 &&
        out.sent % plan.churn_every == 0) {
      collect_all();  // a dropped connection would drop its tickets
      client.close();
      client.connect(plan.host, plan.port);
      ++out.reconnects;
    }
    while (out.sent - acked >= kWindow) {
      client.flush();
      acked += client.poll_tickets(on_ticket);
    }
    const std::uint64_t id = client.admit(object, time);
    sent_at[static_cast<std::size_t>(id - 1)] = clock_type::now();
    ++out.sent;
  }
  collect_all();
  client.close();
  return out;
}

double percentile_ns(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank =
      static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  return values[rank];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace smerge::sim;

  util::ArgParser args(
      "vod_loadgen: closed-loop client fleet for vod_server --listen");
  args.add_string("host", "127.0.0.1", "server address");
  args.add_int("port", 7070, "server port");
  args.add_int("connections", 2, "client connections (one thread each)");
  args.add_int("objects", 64,
               "catalogue size — must match the server's --objects");
  args.add_double("gap", 0.002, "aggregate mean inter-arrival gap");
  args.add_double("delay", 0.01,
                  "guaranteed start-up delay; --verify only — must match the "
                  "server's --delay");
  args.add_double("horizon", 20.0,
                  "simulated time span — must match the server's --horizon");
  args.add_int("seed", 42, "workload RNG seed");
  args.add_bool("constant", false, "constant-rate arrivals instead of Poisson");
  args.add_string("policy", "batching",
                  "--verify only — must match the server's --policy");
  args.add_int("churn-every", 0,
               "reconnect each connection every N admissions; 0 = never");
  args.add_bool("verify", false,
                "recompute the run in process and fail unless the server's "
                "FINISHED digest matches");
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
    if (args.get_int("connections") < 1) {
      throw std::invalid_argument("--connections must be >= 1");
    }
    if (args.get_int("churn-every") < 0) {
      throw std::invalid_argument("--churn-every must be >= 0");
    }
    if (args.get_int("port") < 1 || args.get_int("port") > 65535) {
      throw std::invalid_argument("--port must be in [1, 65535]");
    }
    const auto connections =
        static_cast<std::size_t>(args.get_int("connections"));

    const std::vector<double> weights =
        zipf_weights(workload.objects, workload.zipf_exponent);
    std::vector<std::vector<double>> traces(
        static_cast<std::size_t>(workload.objects));
    for (Index m = 0; m < workload.objects; ++m) {
      traces[static_cast<std::size_t>(m)] =
          generate_arrivals(workload, m, weights[static_cast<std::size_t>(m)]);
    }

    std::vector<ClientPlan> plans(connections);
    std::uint64_t total_sends = 0;
    for (std::size_t c = 0; c < connections; ++c) {
      ClientPlan& plan = plans[c];
      plan.host = args.get_string("host");
      plan.port = static_cast<std::uint16_t>(args.get_int("port"));
      plan.churn_every = static_cast<std::uint64_t>(args.get_int("churn-every"));
      for (std::size_t m = c; m < traces.size(); m += connections) {
        for (const double t : traces[m]) {
          plan.sends.emplace_back(t, static_cast<Index>(m));
        }
      }
      std::stable_sort(
          plan.sends.begin(), plan.sends.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      total_sends += plan.sends.size();
    }
    std::cout << "loadgen: " << total_sends << " admissions over "
              << connections << " connections to " << plans[0].host << ":"
              << plans[0].port << " (closed loop, window " << kWindow
              << (plans[0].churn_every > 0
                      ? ", churn every " + std::to_string(plans[0].churn_every)
                      : std::string())
              << ")\n";

    std::vector<ClientOutcome> outcomes(connections);
    const auto start = clock_type::now();
    {
      std::vector<std::thread> threads;
      threads.reserve(connections);
      for (std::size_t c = 0; c < connections; ++c) {
        threads.emplace_back(
            [&, c] { outcomes[c] = run_client(plans[c]); });
      }
      for (auto& t : threads) t.join();
    }
    const double elapsed_s =
        std::chrono::duration<double>(clock_type::now() - start).count();

    std::uint64_t sent = 0, ticketed = 0, reconnects = 0;
    std::vector<double> latencies;
    for (const ClientOutcome& o : outcomes) {
      sent += o.sent;
      ticketed += o.ticketed;
      reconnects += o.reconnects;
      latencies.insert(latencies.end(), o.latencies_ns.begin(),
                       o.latencies_ns.end());
    }
    util::TextTable table({"admissions", "tickets", "reconnects", "elapsed s",
                           "admissions/s", "ticket p50 ms", "ticket p95 ms",
                           "ticket p99 ms"});
    table.add_row(
        sent, ticketed, reconnects, util::format_fixed(elapsed_s, 3),
        util::format_fixed(
            elapsed_s > 0.0 ? static_cast<double>(sent) / elapsed_s : 0.0, 0),
        util::format_fixed(percentile_ns(latencies, 0.50) / 1e6, 3),
        util::format_fixed(percentile_ns(latencies, 0.95) / 1e6, 3),
        util::format_fixed(percentile_ns(latencies, 0.99) / 1e6, 3));
    std::cout << "\n" << table.to_string();
    if (ticketed != sent) {
      std::cerr << "error: " << sent - ticketed << " admissions never "
                << "ticketed\n";
      return EXIT_FAILURE;
    }

    // Every ticket is in, so every producer is quiesced: certify the run.
    net::BlockingClient control;
    control.connect(plans[0].host, plans[0].port);
    const server::WireSummary summary = control.finish();
    control.close();
    if (!summary.ok) {
      std::cerr << "error: server finish failed (producers still posting? "
                   "see the server log)\n";
      return EXIT_FAILURE;
    }
    util::TextTable server_table({"arrivals", "streams", "streams served",
                                  "peak channels", "p99 wait", "max wait",
                                  "violations"});
    server_table.add_row(summary.total_arrivals, summary.total_streams,
                         summary.streams_served, summary.peak_concurrency,
                         util::format_fixed(summary.wait.p99, 5),
                         util::format_fixed(summary.wait.max, 5),
                         summary.guarantee_violations);
    std::cout << "\nserver summary:\n"
              << server_table.to_string() << "snapshot digest " << std::hex
              << summary.digest << std::dec << "\n";

    if (args.get_bool("verify")) {
      // The same workload, in process: wire-fed and trace-fed runs must
      // agree bit for bit.
      std::unique_ptr<OnlinePolicy> policy =
          make_policy(args.get_string("policy"));
      server::ServerCoreConfig config;
      config.objects = workload.objects;
      config.delay = args.get_double("delay");
      config.horizon = workload.horizon;
      config.shards = 2;
      server::ServerCore reference(config, *policy);
      for (Index m = 0; m < workload.objects; ++m) {
        reference.ingest_trace(
            m, std::vector<double>(traces[static_cast<std::size_t>(m)]));
      }
      reference.finish();
      const std::uint64_t expected =
          server::snapshot_digest(reference.take_snapshot());
      if (expected != summary.digest) {
        std::cerr << "verify: MISMATCH — trace-fed digest " << std::hex
                  << expected << " != wire digest " << summary.digest
                  << std::dec
                  << " (did the server run the same "
                     "--objects/--delay/--horizon/--policy?)\n";
        return EXIT_FAILURE;
      }
      std::cout << "verify: wire-fed and trace-fed snapshots identical\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
