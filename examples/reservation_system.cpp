// Reservation system: the paper's motivating off-line application.
//
// A provider sells time-slotted reservations for a popular broadcast (the
// off-line environment of Section 1: "the requests of all clients are
// known ahead of time... the server computes all the receiving programs
// and the broadcasting schedules ahead of time"). Given the movie length
// and the guaranteed start-up delay in minutes, this example:
//   * converts to slot units,
//   * plans the optimal stream count (Theorem 12) and, if the set-top
//     boxes have a bounded buffer, the Theorem-16 variant,
//   * emits the full multicast schedule and per-slot channel profile,
//   * verifies every reservation's playback.
//
// Run: ./reservation_system --movie-minutes=120 --delay-minutes=15
//        --reservation-hours=6 [--buffer-minutes=30]
#include <cstdlib>
#include <iostream>

#include "core/buffer.h"
#include "core/full_cost.h"
#include "core/plan.h"
#include "schedule/diagram.h"
#include "schedule/stream_schedule.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace smerge;

  util::ArgParser args("reservation_system: off-line delay-guaranteed planning");
  args.add_int("movie-minutes", 120, "movie length in minutes");
  args.add_int("delay-minutes", 15, "guaranteed start-up delay in minutes");
  args.add_int("reservation-hours", 6, "length of the reservation horizon in hours");
  args.add_int("buffer-minutes", 0,
               "client buffer size in minutes (0 = unbounded, Section 3.3 otherwise)");
  args.add_bool("diagram", false, "print the concrete transmission diagram");
  try {
    if (!args.parse(argc, argv)) {
      std::cout << args.help();
      return EXIT_SUCCESS;
    }
    const Index delay = args.get_int("delay-minutes");
    if (delay < 1) throw std::invalid_argument("delay must be >= 1 minute");
    if (args.get_int("movie-minutes") % delay != 0) {
      throw std::invalid_argument("movie length must be a multiple of the delay");
    }
    const Index L = args.get_int("movie-minutes") / delay;
    const Index n = args.get_int("reservation-hours") * 60 / delay;
    const Index buffer_minutes = args.get_int("buffer-minutes");

    std::cout << "Movie: " << args.get_int("movie-minutes") << " min, delay "
              << delay << " min  =>  L = " << L << " slots, horizon n = " << n
              << " slots\n";

    MergeForest forest = [&] {
      if (buffer_minutes == 0) return optimal_merge_forest(L, n);
      const Index B = std::max<Index>(1, buffer_minutes / delay);
      std::cout << "Client buffer: " << buffer_minutes << " min = " << B
                << " slots (Theorem 16 applies)\n";
      return optimal_merge_forest_bounded(L, n, B);
    }();

    const Cost batching = n * L;
    std::cout << "Planned bandwidth: " << forest.full_cost() << " stream-slots with "
              << forest.num_trees() << " full streams (batching alone: " << batching
              << "; saving factor "
              << static_cast<double>(batching) / static_cast<double>(forest.full_cost())
              << ")\n\n";

    const StreamSchedule schedule(forest);
    util::TextTable table({"stream", "starts (slot)", "length (slots)",
                           "length (min)", "role"});
    for (Index x = 0; x < std::min<Index>(forest.size(), 20); ++x) {
      const bool root = forest.tree_offset(forest.tree_of(x)) == x;
      table.add_row(stream_name(x), x, schedule.stream(x).length,
                    schedule.stream(x).length * delay,
                    root ? "full stream" : "truncated");
    }
    std::cout << table.to_string();
    if (forest.size() > 20) {
      std::cout << "  ... (" << forest.size() - 20 << " more streams)\n";
    }
    std::cout << "\nPeak channels in use: " << schedule.peak_bandwidth() << '\n';

    if (args.get_bool("diagram")) {
      std::cout << '\n' << concrete_diagram(forest);
    }

    const plan::MergePlan merge_plan = forest.to_plan();
    std::cout << "\nSample receiving programs:\n";
    for (const Index a : {Index{0}, n / 2, n - 1}) {
      std::cout << "  client " << a << ": " << program_text(merge_plan, a) << '\n';
    }

    const plan::PlanReport report = plan::verify(merge_plan);
    std::cout << "\nPlayback verification: " << (report.ok ? "OK" : "FAILED")
              << "; worst client buffer " << report.peak_buffer << " slots ("
              << report.peak_buffer * delay << " min)\n";
    if (!report.ok) {
      std::cerr << "error: " << report.first_error << '\n';
      return EXIT_FAILURE;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
