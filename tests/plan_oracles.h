// Shared plan-level oracles for the playback tests: a one-stream
// tampering helper, the tight-truncation check (every non-root stream
// transmits exactly what its clients read, no more) and the Lemma 15
// check (every receive-two client's peak buffer is exactly min(d, L-d)).
#ifndef SMERGE_TESTS_PLAN_ORACLES_H
#define SMERGE_TESTS_PLAN_ORACLES_H

#include <algorithm>
#include <vector>

#include "core/buffer.h"
#include "core/merge_forest.h"
#include "core/plan.h"

namespace smerge::oracles {

/// A copy of `p` (explicit lengths, same starts and parents) in which
/// stream `victim` transmits for `length` instead.
inline plan::MergePlan with_stream_length(const plan::MergePlan& p,
                                          Index victim, double length) {
  plan::PlanBuilder builder(p.media_length(), p.model());
  for (Index i = 0; i < p.size(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    (void)builder.add_stream(p.start()[k], p.parent()[k],
                             i == victim ? length : p.length()[k]);
  }
  return builder.build();
}

/// The first non-root stream whose length differs from the largest
/// `to` of any program piece that reads it, or -1 when every
/// truncation is tight.
inline Index first_loose_stream(const plan::MergePlan& p, Model model) {
  std::vector<double> read_to(static_cast<std::size_t>(p.size()), 0.0);
  for (Index c = 0; c < p.size(); ++c) {
    for (const plan::Piece& piece : plan::client_program(p, c, model)) {
      double& high = read_to[static_cast<std::size_t>(piece.stream)];
      high = std::max(high, piece.to);
    }
  }
  for (Index i = 0; i < p.size(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    if (p.parent()[k] != -1 && p.length()[k] != read_to[k]) return i;
  }
  return -1;
}

/// The first client whose measured receive-two peak buffer on the
/// forest's plan differs from Lemma 15's min(d, L-d), with d its
/// distance from its tree's root, or -1 when every client matches.
inline Index first_lemma15_mismatch(const MergeForest& forest) {
  const plan::MergePlan p = forest.to_plan();
  for (Index a = 0; a < forest.size(); ++a) {
    const Index d = a - forest.tree_offset(forest.tree_of(a));
    if (plan::verify_client(p, a, Model::kReceiveTwo).peak_buffer !=
        static_cast<double>(buffer_requirement(d, forest.media_length()))) {
      return a;
    }
  }
  return -1;
}

}  // namespace smerge::oracles

#endif  // SMERGE_TESTS_PLAN_ORACLES_H
