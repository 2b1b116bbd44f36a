#include "schedule/channels.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <vector>

namespace smerge {

ChannelAssignment assign_channels(const std::vector<StreamInterval>& intervals) {
  ChannelAssignment out;
  out.channel_of.assign(intervals.size(), -1);

  using EndChannel = std::pair<double, Index>;
  std::priority_queue<EndChannel, std::vector<EndChannel>, std::greater<>> busy;
  std::vector<Index> idle;

  double prev_start = -std::numeric_limits<double>::infinity();
  for (std::size_t x = 0; x < intervals.size(); ++x) {
    const StreamInterval& w = intervals[x];
    if (w.start < prev_start) {
      throw std::invalid_argument(
          "assign_channels: intervals must be sorted by start time");
    }
    prev_start = w.start;
    while (!busy.empty() && busy.top().first <= w.start) {
      idle.push_back(busy.top().second);
      busy.pop();
    }
    Index channel;
    if (!idle.empty()) {
      channel = idle.back();
      idle.pop_back();
    } else {
      channel = out.channels_used++;
    }
    out.channel_of[x] = channel;
    busy.emplace(w.end, channel);
  }
  return out;
}

ChannelAssignment assign_channels(const plan::MergePlan& plan) {
  std::vector<StreamInterval> intervals;
  const auto start = plan.start();
  const auto length = plan.length();
  intervals.reserve(start.size());
  for (std::size_t i = 0; i < start.size(); ++i) {
    intervals.push_back({start[i], start[i] + length[i]});
  }
  return assign_channels(intervals);
}

Index peak_overlap(std::vector<ChannelEvent>& events) {
  std::sort(events.begin(), events.end(),
            [](const ChannelEvent& a, const ChannelEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.delta < b.delta;
            });
  Index depth = 0;
  Index peak = 0;
  for (const ChannelEvent& e : events) {
    depth += e.delta;
    if (depth > peak) peak = depth;
  }
  return peak;
}

}  // namespace smerge
