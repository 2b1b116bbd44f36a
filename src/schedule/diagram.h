// ASCII renderings of the paper's diagrams.
//
// `concrete_diagram` reproduces Fig. 3: one row per stream, one column per
// slot, each cell holding the media segment number that stream transmits
// during that slot. `render_tree` reproduces the Fig. 4/6/7 merge-tree
// drawings with box-drawing characters. Streams are named A, B, C, ... as
// in the paper (falling back to the arrival number past 26 streams).
#ifndef SMERGE_SCHEDULE_DIAGRAM_H
#define SMERGE_SCHEDULE_DIAGRAM_H

#include <string>

#include "core/merge_forest.h"
#include "core/merge_tree.h"
#include "core/plan.h"

namespace smerge {

/// The paper's stream naming: A..Z for the first 26 arrivals, then "s27",
/// "s28", ...
[[nodiscard]] std::string stream_name(Index arrival);

/// Fig.-3 style concrete diagram of the whole forest's transmission
/// schedule under `model`.
[[nodiscard]] std::string concrete_diagram(const MergeForest& forest,
                                           Model model = Model::kReceiveTwo);

/// Fig.-4 style tree rendering. `offset` shifts the displayed labels
/// (global arrival times when the tree sits inside a forest).
[[nodiscard]] std::string render_tree(const MergeTree& tree, Index offset = 0);

/// A client's receiving program on a slot-aligned plan (stream id =
/// start slot, as `MergeForest::to_plan` emits) as space-separated
/// "[first,last]<-stream" blocks: a piece (from, to] taken from stream
/// s is segments from+1..to. Throws std::out_of_range for an unknown
/// client.
[[nodiscard]] std::string program_text(const plan::MergePlan& p, Index client,
                                       Model model = Model::kReceiveTwo);

/// Per-client reception timeline: one row per source stream showing which
/// segment arrives in which slot, plus a buffer-occupancy row — the
/// client-side view of the Fig.-3 diagram (the vertical lines of the
/// paper's figure, made explicit). Slots run from the client's arrival to
/// its last reception.
[[nodiscard]] std::string client_timeline(const MergeForest& forest, Index arrival,
                                          Model model = Model::kReceiveTwo);

}  // namespace smerge

#endif  // SMERGE_SCHEDULE_DIAGRAM_H
