#include "schedule/diagram.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "core/plan.h"
#include "schedule/stream_schedule.h"

namespace smerge {

std::string stream_name(Index arrival) {
  if (arrival >= 0 && arrival < 26) {
    return std::string(1, static_cast<char>('A' + arrival));
  }
  // Built via append to dodge GCC 12's false-positive -Wrestrict on
  // operator+ with a short string literal (GCC PR105651).
  std::string name = "s";
  name += std::to_string(arrival);
  return name;
}

std::string concrete_diagram(const MergeForest& forest, Model model) {
  const StreamSchedule schedule(forest, model);
  const Index horizon = schedule.horizon_end();
  // Cell width fits the largest segment number and the time header.
  const std::size_t cell =
      std::max<std::size_t>(std::to_string(forest.media_length()).size(),
                            std::to_string(horizon - 1).size()) +
      1;
  const auto pad = [cell](const std::string& s) {
    return s.size() >= cell ? s : std::string(cell - s.size(), ' ') + s;
  };

  // Left margin sized to the widest stream label "H (t=7):".
  std::vector<std::string> labels;
  labels.reserve(static_cast<std::size_t>(forest.size()));
  std::size_t margin = std::string("t:").size();
  for (Index x = 0; x < forest.size(); ++x) {
    labels.push_back(stream_name(x) + " (t=" + std::to_string(x) + "):");
    margin = std::max(margin, labels.back().size());
  }

  std::ostringstream os;
  os << std::string(margin - 2, ' ') << "t:";
  for (Index t = 0; t < horizon; ++t) os << pad(std::to_string(t));
  os << '\n';
  for (Index x = 0; x < forest.size(); ++x) {
    const std::string& label = labels[static_cast<std::size_t>(x)];
    os << std::string(margin - label.size(), ' ') << label;
    const StreamWindow& w = schedule.stream(x);
    for (Index t = 0; t < w.start; ++t) os << pad("");
    for (Index j = 1; j <= w.length; ++j) os << pad(std::to_string(j));
    os << '\n';
  }
  return os.str();
}

namespace {

/// One block of a slot-aligned receiving program: segments first..last
/// read from `stream`.
struct Block {
  Index stream;
  Index first;  ///< first segment (1-based)
  Index last;   ///< last segment, inclusive
};

/// The client's program on a slot-aligned plan (stream id = start slot,
/// as `MergeForest::to_plan` emits): a piece (from, to] taken from
/// stream s is segments from+1..to, with segment j on the air during
/// slot s + j - 1.
std::vector<Block> segment_blocks(const plan::MergePlan& p, Index client, Model model) {
  std::vector<Block> blocks;
  for (const plan::Piece& piece : plan::client_program(p, client, model)) {
    blocks.push_back(Block{piece.stream, static_cast<Index>(std::llround(piece.from)) + 1,
                           static_cast<Index>(std::llround(piece.to))});
  }
  return blocks;
}

}  // namespace

std::string program_text(const plan::MergePlan& p, Index client, Model model) {
  std::ostringstream os;
  for (const Block& b : segment_blocks(p, client, model)) {
    if (os.tellp() > 0) os << ' ';
    os << '[' << b.first << ',' << b.last << "]<-" << b.stream;
  }
  return os.str();
}

std::string client_timeline(const MergeForest& forest, Index arrival, Model model) {
  const std::vector<Block> blocks =
      segment_blocks(forest.to_plan(model), arrival, model);
  const Index a = arrival;
  const Index L = forest.media_length();
  Index end = a;  // one past the last reception slot
  for (const Block& b : blocks) end = std::max(end, b.stream + b.last);

  const std::size_t cell = std::to_string(std::max(L, end - 1)).size() + 1;
  const auto pad = [cell](const std::string& s) {
    return s.size() >= cell ? s : std::string(cell - s.size(), ' ') + s;
  };
  std::vector<std::string> labels;
  std::size_t margin = std::string("buffer:").size();
  for (const Block& b : blocks) {
    labels.push_back("from " + stream_name(b.stream) + ":");
    margin = std::max(margin, labels.back().size());
  }
  margin = std::max(margin, std::string("t:").size());

  std::ostringstream os;
  os << "client " << a << " (" << stream_name(a) << "): plays segments 1.." << L
     << " from slot " << a << '\n';
  os << std::string(margin - 2, ' ') << "t:";
  for (Index t = a; t < end; ++t) os << pad(std::to_string(t));
  os << '\n';

  // One row per reception block.
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const Block& b = blocks[i];
    const std::string& label = labels[i];
    std::string line = std::string(margin - label.size(), ' ') + label;
    for (Index t = a; t < end; ++t) {
      const Index j = t - b.stream + 1;  // segment on the air at slot t
      line += pad(j >= b.first && j <= b.last ? std::to_string(j) : "");
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    os << line << '\n';
  }

  // Buffer occupancy at the end of each slot: segments fully received
  // (segment j of stream s completes at slot boundary s + j) minus
  // segments fully played.
  os << std::string(margin - 7, ' ') << "buffer:";
  for (Index t = a + 1; t <= end; ++t) {
    Index received = 0;
    for (const Block& b : blocks) {
      received += std::clamp<Index>(t - b.stream, b.first - 1, b.last) - (b.first - 1);
    }
    const Index played = std::clamp<Index>(t - a, 0, L);
    os << pad(std::to_string(received - played));
  }
  os << '\n';
  return os.str();
}

namespace {

void render_node(const MergeTree& tree, Index node, Index offset,
                 const std::string& prefix, bool last, std::ostringstream& os) {
  if (node == 0) {
    os << (node + offset) << " (" << stream_name(node + offset) << ")\n";
  } else {
    os << prefix << (last ? "`- " : "+- ") << (node + offset) << " ("
       << stream_name(node + offset) << ")\n";
  }
  const auto& kids = tree.children(node);
  const std::string child_prefix =
      node == 0 ? std::string() : prefix + (last ? "   " : "|  ");
  for (std::size_t i = 0; i < kids.size(); ++i) {
    render_node(tree, kids[i], offset, child_prefix, i + 1 == kids.size(), os);
  }
}

}  // namespace

std::string render_tree(const MergeTree& tree, Index offset) {
  std::ostringstream os;
  render_node(tree, 0, offset, "", true, os);
  return os.str();
}

}  // namespace smerge
