#include "bench/runner.h"

#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "util/cli.h"
#include "util/json_writer.h"
#include "util/parallel.h"

namespace smerge::bench {

namespace {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void print_run(const BenchRun& run, std::ostream& os) {
  os << "=== " << run.spec->name << " ===\n"
     << run.spec->description << "\n\n";
  if (!run.error.empty()) {
    os << "ERROR: " << run.error << "\n\n";
    return;
  }
  for (const auto& table : run.result.tables) os << table.to_string() << '\n';
  for (const auto& note : run.result.notes) os << note << '\n';
  os << (run.result.ok ? "ok" : "FAILED") << " ("
     << util::format_fixed(run.elapsed_ms, 1) << " ms)\n\n";
}

}  // namespace

BenchRun run_bench(const BenchSpec& spec, const BenchContext& ctx) {
  BenchRun run;
  run.spec = &spec;
  const auto start = std::chrono::steady_clock::now();
  try {
    run.result = spec.run(ctx);
  } catch (const std::exception& e) {
    run.error = e.what();
  } catch (...) {
    run.error = "unknown exception";
  }
  const auto end = std::chrono::steady_clock::now();
  run.elapsed_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return run;
}

std::string to_json(const std::vector<BenchRun>& runs, const BenchContext& ctx) {
  util::JsonWriter w;
  w.begin_object();
  w.key("schema").value("smerge-bench-v1");
  w.key("quick").value(ctx.quick);
  w.key("threads").value(static_cast<std::int64_t>(ctx.threads));
  w.key("seed").value(ctx.seed);
  // Machine context for reading the timing series: wall-clock numbers
  // only compare between runs on comparable hardware.
  w.key("hardware_concurrency")
      .value(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.key("benches").begin_array();
  for (const BenchRun& run : runs) {
    w.begin_object();
    w.key("name").value(run.spec->name);
    w.key("description").value(run.spec->description);
    w.key("ok").value(run.ok());
    w.key("elapsed_ms").value(run.elapsed_ms);
    if (!run.error.empty()) w.key("error").value(run.error);
    w.key("series").begin_object();
    for (const BenchSeries& series : run.result.series) {
      w.key(series.name).begin_array();
      for (const double v : series.values) w.value(v);
      w.end_array();
    }
    w.end_object();
    w.key("metrics").begin_object();
    for (const auto& [name, value] : run.result.metrics) {
      w.key(name).value(value);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

int run_cli(int argc, const char* const* argv) {
  util::ArgParser parser(
      "smerge_bench — registry-driven benchmark harness reproducing the "
      "paper's figures, tables and theorems");
  parser.add_bool("list", false, "print registered benches and exit");
  parser.add_string("only", "",
                    "comma-separated bench names to run (default: all)");
  parser.add_string("json", "", "write the JSON results document to this path");
  parser.add_int("threads", static_cast<std::int64_t>(util::default_thread_count()),
                 "worker threads for sweep fan-out");
  parser.add_bool("quick", false, "reduced parameters (sub-second smoke run)");
  parser.add_int("seed", static_cast<std::int64_t>(kDefaultBenchSeed),
                 "master RNG seed for the stochastic sim_* benches");

  try {
    if (!parser.parse(argc, argv)) {
      std::cout << parser.help();
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n' << parser.help();
    return 2;
  }

  const BenchRegistry& registry = BenchRegistry::instance();
  if (parser.get_bool("list")) {
    for (const BenchSpec* spec : registry.all()) {
      std::cout << spec->name << "\n    " << spec->description << '\n';
    }
    std::cout << registry.size() << " benches registered\n";
    return 0;
  }

  std::vector<const BenchSpec*> selected;
  const std::string only = parser.get_string("only");
  if (only.empty()) {
    selected = registry.all();
  } else {
    for (const std::string& name : split_csv(only)) {
      const BenchSpec* spec = registry.find(name);
      if (spec == nullptr) {
        std::cerr << "error: unknown bench '" << name
                  << "' (use --list to see the registry)\n";
        return 2;
      }
      selected.push_back(spec);
    }
    if (selected.empty()) {
      std::cerr << "error: --only='" << only << "' names no benches\n";
      return 2;
    }
  }

  BenchContext ctx;
  ctx.quick = parser.get_bool("quick");
  const std::int64_t threads = parser.get_int("threads");
  if (threads < 1) {
    std::cerr << "error: --threads must be >= 1\n";
    return 2;
  }
  ctx.threads = static_cast<unsigned>(threads);
  const std::int64_t seed = parser.get_int("seed");
  if (seed < 0) {
    std::cerr << "error: --seed must be >= 0\n";
    return 2;
  }
  ctx.seed = static_cast<std::uint64_t>(seed);

  std::vector<BenchRun> runs;
  runs.reserve(selected.size());
  bool all_ok = true;
  for (const BenchSpec* spec : selected) {
    runs.push_back(run_bench(*spec, ctx));
    print_run(runs.back(), std::cout);
    all_ok = all_ok && runs.back().ok();
  }

  const std::string json_path = parser.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: cannot open '" << json_path << "' for writing\n";
      return 2;
    }
    out << to_json(runs, ctx);
    std::cout << "wrote " << json_path << '\n';
  }

  std::cout << runs.size() << " benches, "
            << (all_ok ? "all ok" : "FAILURES above") << '\n';
  return all_ok ? 0 : 1;
}

}  // namespace smerge::bench
