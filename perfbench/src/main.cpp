// The serving-stack benchmark: one workload per invocation.
//
//   perfbench --workload replay|wire|budget --seed N --seconds S --trace 0|1
//
// Prints a human-readable report (every metric with its unit and sample
// count, every failed check) on stderr and, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. An
// untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) the per-layer ones, and writes its spans next to the
// executable. Exit 1 when a correctness check fails (after printing the
// result), 2 on a usage or run error (without one).
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Declared {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, reported by every workload (see README.md
// for what each means per workload).
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},          {"arrivals_per_s", "1/s"}, {"ticket_p50_us", "us"},
    {"ticket_p99_us", "us"},   {"peak_rss_mb", "MB"},     {"mean_channels", "channels"},
    {"wait_p99_media", "media"},
};

// Every per-layer metric. A workload whose path does not reach a layer
// reports 0 for it (and the report says n/a).
constexpr Declared kPerLayer[] = {
    {"ticket_p50_us.low", "us"},
    {"ticket_p99_us.low", "us"},
    {"ticket_p50_us.high", "us"},
    {"ticket_p99_us.high", "us"},
    {"core.ingest_ms", "ms"},
    {"core.drain_ms", "ms"},
    {"core.drain_p99_ms", "ms"},
    {"core.finish_ms", "ms"},
    {"core.finish_share", "ratio"},
    {"core.snapshot_ms", "ms"},
    {"core.live_stats_us", "us"},
    {"stats.exact_profile_ms", "ms"},
    {"core.shard_speedup", "ratio"},
    {"core.wire_shards_ratio", "ratio"},
    {"core.checkpoint_ms", "ms"},
    {"core.checkpoint_mb", "MB"},
    {"core.arrivals", "count"},
    {"core.streams", "count"},
    {"ledger.peak_channels", "count"},
    {"loadgen.late_p99_us", "us"},
    {"loadgen.late_max_us", "us"},
    {"net.outstanding_max", "count"},
    {"net.drains_per_s", "1/s"},
    {"net.admits_per_drain", "count"},
    {"net.bytes_in_per_admit", "B"},
    {"net.bytes_out_per_ticket", "B"},
    {"net.protocol_errors", "count"},
    {"net.closed", "count"},
    {"net.server_setup_s", "s"},
    {"net.server_peak_rss_mb", "MB"},
    {"protocol.decode_ns", "ns"},
    {"core.preview_ns", "ns"},
    {"protocol.ticket_encode_ns", "ns"},
    {"core.post_ns", "ns"},
    {"core.drain_us_p50", "us"},
    {"core.drain_us_p99", "us"},
    {"core.admit_ns.immediate.p50", "ns"},
    {"core.admit_ns.immediate.p99", "ns"},
    {"core.admit_ns.deferred.p50", "ns"},
    {"core.admit_ns.deferred.p99", "ns"},
    {"core.admit_ns.refused.p50", "ns"},
    {"core.admit_ns.refused.p99", "ns"},
    {"core.defer_probes_per_admit", "ratio"},
    {"core.admit_useful_ratio", "ratio"},
    {"core.refused_ratio", "ratio"},
    {"ledger.peak_query_ns", "ns"},
    {"ledger.current_query_ns", "ns"},
    {"trace.overhead_ratio", "ratio"},
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload replay|wire|budget --seed N "
               "--seconds S --trace 0|1\n";
  std::exit(2);
}

std::string json_number(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument '" + flag + "'");
    args[flag.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" && key != "trace") {
      usage("unknown flag --" + key);
    }
  }
  if (args.size() != 4) usage("all four flags are required");
  const std::string workload = args["workload"];
  RunOptions options;
  char* end = nullptr;
  const long long seed = std::strtoll(args["seed"].c_str(), &end, 10);
  if (*end != '\0' || seed < 0) usage("--seed must be a nonnegative integer");
  options.seed = static_cast<std::uint64_t>(seed);
  options.seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(options.seconds > 0.0)) usage("--seconds must be positive");
  if (args["trace"] != "0" && args["trace"] != "1") usage("--trace must be 0 or 1");
  options.trace = args["trace"] == "1";

  const std::string exe = argv[0];
  const std::string dir = exe.find('/') == std::string::npos
                              ? std::string(".")
                              : exe.substr(0, exe.rfind('/'));
  Tracer tracer(options.trace);
  RunResult result;
  try {
    if (workload == "replay") {
      result = run_replay(ReplayConfig{}, options, tracer);
    } else if (workload == "budget") {
      result = run_budget(BudgetConfig{}, options, tracer);
    } else if (workload == "wire") {
      result = run_wire(dir + "/vod_server", options, tracer);
    } else {
      usage("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
    return 2;
  }

  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : result.metrics) by_name[m.name] = &m;
  std::cerr << "perfbench " << workload << " seed " << options.seed << " ("
            << (options.trace ? "traced" : "untraced") << ", " << options.seconds
            << " s)\n";
  for (const Metric& m : result.metrics) {
    std::cerr << "  " << std::left << std::setw(34) << m.name << std::right
              << std::setw(18) << json_number(m.value) << " " << std::left << std::setw(9)
              << m.unit << " n=" << m.samples << "\n";
  }

  std::ostringstream metrics;
  bool first = true;
  const auto emit = [&](const Declared& d) {
    const auto it = by_name.find(d.name);
    double value = 0.0;
    if (it != by_name.end()) {
      value = it->second->value;
    } else if (options.trace) {
      std::cerr << "  " << std::left << std::setw(34) << d.name << " n/a on " << workload
                << "\n";
    } else {
      std::cerr << "perfbench: " << workload << " did not measure " << d.name << "\n";
      std::exit(2);
    }
    if (!std::isfinite(value)) {
      std::cerr << "perfbench: " << d.name << " is not finite\n";
      std::exit(2);
    }
    metrics << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
            << json_number(value) << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  };
  if (options.trace) {
    for (const Declared& d : kPerLayer) emit(d);
  } else {
    for (const Declared& d : kEndToEnd) emit(d);
  }
  for (const std::string& failure : result.check_failures) {
    std::cerr << "CHECK FAILED: " << failure << "\n";
  }
  if (options.trace) {
    const std::string path = dir + "/spans-" + workload + "-" + std::to_string(options.seed) + ".jsonl";
    if (!tracer.write(path)) std::cerr << "perfbench: could not write " << path << "\n";
    std::cerr << "  " << tracer.size() << " spans written to " << path << "\n";
  }
  const bool correct = result.check_failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}
