// Merge forests (Section 2, "Full cost").
//
// A merge forest for the arrivals [0, n-1] is a sequence of merge trees
// covering consecutive arrival blocks. Each tree root is a *full stream*
// of length L (the media length in slots); every other stream is truncated
// per Lemma 1 / Lemma 17. The full cost is
//   Fcost(F) = s * L + sum_i Mcost(T_i)
// — the total server bandwidth in slot units needed to serve all clients.
#ifndef SMERGE_CORE_MERGE_FOREST_H
#define SMERGE_CORE_MERGE_FOREST_H

#include <vector>

#include "core/merge_tree.h"

namespace smerge {

/// An immutable merge forest over the global arrivals 0..size()-1 with a
/// fixed media length L. Tree t covers the arrival block
/// [tree_offset(t), tree_offset(t) + tree(t).size()).
class MergeForest {
 public:
  /// Assembles a forest from trees laid out consecutively from arrival 0.
  /// Every tree must fit the media length (span <= L-1); throws
  /// std::invalid_argument otherwise or when `trees` is empty / L < 1.
  MergeForest(Index media_length, std::vector<MergeTree> trees);

  /// Media length L in slots.
  [[nodiscard]] Index media_length() const noexcept { return media_length_; }
  /// Total number of arrivals n.
  [[nodiscard]] Index size() const noexcept { return total_; }
  /// Number of trees (= full streams) s.
  [[nodiscard]] Index num_trees() const noexcept { return static_cast<Index>(trees_.size()); }

  /// Tree t (0-based). Throws std::out_of_range.
  [[nodiscard]] const MergeTree& tree(Index t) const;
  /// Global arrival time of tree t's root.
  [[nodiscard]] Index tree_offset(Index t) const;
  /// Index of the tree containing global arrival x. O(log s).
  [[nodiscard]] Index tree_of(Index arrival) const;

  /// Actual transmitted length of the stream started at global arrival x:
  /// L for roots, Lemma-1/Lemma-17 lengths otherwise.
  [[nodiscard]] Cost stream_length(Index arrival, Model model = Model::kReceiveTwo) const;

  /// Fcost: s*L + sum of merge costs (Section 2 / Section 3.4).
  [[nodiscard]] Cost full_cost(Model model = Model::kReceiveTwo) const;

  /// Average server bandwidth Fcost/n in streams-per-slot units.
  [[nodiscard]] double average_bandwidth(Model model = Model::kReceiveTwo) const;

  /// True iff every tree is a feasible L-tree under `model` (all stream
  /// lengths at most L). The constructor only enforces the span condition;
  /// `plan::verify` flags the streams that break it.
  [[nodiscard]] bool feasible(Model model = Model::kReceiveTwo) const;

  /// The canonical-IR view: stream id = global arrival, start = arrival
  /// slot, parents within each tree, lengths per Lemma 1 / Lemma 17 (L
  /// for roots). `plan::verify` on the result checks the full paper
  /// invariant set, subsuming the per-forest walks.
  [[nodiscard]] plan::MergePlan to_plan(Model model = Model::kReceiveTwo) const;

 private:
  Index media_length_;
  Index total_ = 0;
  std::vector<MergeTree> trees_;
  std::vector<Index> offsets_;
};

}  // namespace smerge

#endif  // SMERGE_CORE_MERGE_FOREST_H
