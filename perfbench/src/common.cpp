#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

namespace perfbench {

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Percentiles percentiles(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  Percentiles p;
  p.samples = samples.size();
  p.p50 = nearest_rank(samples, 0.50);
  p.p99 = nearest_rank(samples, 0.99);
  p.max = samples.empty() ? 0.0 : samples.back();
  return p;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return nearest_rank(samples, 0.5);
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 12);
}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, now, now, parent, run_});
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

double Tracer::close(int id) {
  if (!enabled_ || id < 0) return 0.0;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - origin_)
                    .count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":"
        << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"parent\":"
        << s.parent << ",\"run\":" << s.run << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
