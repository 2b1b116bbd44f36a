// Quickstart: the paper's running example, end to end.
//
// A 2-hour movie with a guaranteed 15-minute start-up delay gives a media
// length of L = 8 slots; here we use the paper's richer L = 15, n = 8
// instance (Figs. 3 and 4) to show the whole pipeline:
//   1. compute the optimal merge forest (36 stream-slots, one full stream),
//   2. print the Fig.-4 merge tree and the Fig.-3 concrete diagram,
//   3. print each client's receiving program,
//   4. verify playback of every client with the plan verifier.
//
// Run:  ./quickstart [--media-slots=15] [--slots=8]
#include <cstdlib>
#include <iostream>

#include "core/buffer.h"
#include "core/full_cost.h"
#include "core/plan.h"
#include "schedule/diagram.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace smerge;

  util::ArgParser args(
      "quickstart: optimal delay-guaranteed stream merging on one instance");
  args.add_int("media-slots", 15, "media length L in slots (delay = 1 slot)");
  args.add_int("slots", 8, "time horizon n in slots (one arrival per slot)");
  try {
    if (!args.parse(argc, argv)) {
      std::cout << args.help();
      return EXIT_SUCCESS;
    }
    const Index L = args.get_int("media-slots");
    const Index n = args.get_int("slots");

    const StreamPlan plan = optimal_stream_count(L, n);
    std::cout << "Instance: media length L = " << L << " slots, horizon n = " << n
              << " slots\n"
              << "Optimal full cost F(L,n) = " << plan.cost << " stream-slots ("
              << plan.streams << " full stream" << (plan.streams == 1 ? "" : "s")
              << ", average bandwidth "
              << static_cast<double>(plan.cost) / static_cast<double>(n)
              << " channels)\n\n";

    const MergeForest forest = optimal_merge_forest(L, n);
    for (Index t = 0; t < forest.num_trees(); ++t) {
      std::cout << "Merge tree " << t << " (cf. Fig. 4):\n"
                << render_tree(forest.tree(t), forest.tree_offset(t)) << '\n';
    }

    std::cout << "Concrete transmission diagram (cf. Fig. 3):\n"
              << concrete_diagram(forest) << '\n';

    const plan::MergePlan merge_plan = forest.to_plan();
    std::cout << "Receiving programs (segments <- stream):\n";
    for (Index a = 0; a < n; ++a) {
      const Index d = a - forest.tree_offset(forest.tree_of(a));
      std::cout << "  client " << a << ": " << program_text(merge_plan, a)
                << "   buffer <= " << buffer_requirement(d, L) << " slots\n";
    }

    std::cout << "\nClient-side view of the last arrival:\n"
              << client_timeline(forest, n - 1);

    const plan::PlanReport report = plan::verify(merge_plan);
    std::cout << "\nPlayback verification: " << (report.ok ? "OK" : "FAILED")
              << " (" << report.clients << " clients, peak "
              << report.max_concurrent << " concurrent streams per client, "
              << "worst buffer " << report.peak_buffer << " slots)\n";
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
