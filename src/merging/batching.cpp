#include "merging/batching.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace smerge::merging {

double batch_start_of(double t, double delay) {
  return std::ceil(t / delay) * delay;
}

std::vector<double> batch_arrivals(const std::vector<double>& arrivals, double delay) {
  if (!(delay > 0.0)) {
    throw std::invalid_argument("batch_arrivals: delay must be positive");
  }
  std::vector<double> starts;
  starts.reserve(arrivals.size());
  double prev = -std::numeric_limits<double>::infinity();
  for (const double t : arrivals) {
    if (t < prev) {
      throw std::invalid_argument("batch_arrivals: arrivals must be nondecreasing");
    }
    prev = t;
    const double start = batch_start_of(t, delay);
    if (starts.empty() || start > starts.back()) starts.push_back(start);
  }
  return starts;
}

double unicast_cost(const std::vector<double>& arrivals, double media_length) {
  if (!(media_length > 0.0)) {
    throw std::invalid_argument("unicast_cost: media length must be positive");
  }
  return static_cast<double>(arrivals.size()) * media_length;
}

double batching_cost(const std::vector<double>& arrivals, double media_length,
                     double delay) {
  if (!(media_length > 0.0)) {
    throw std::invalid_argument("batching_cost: media length must be positive");
  }
  return static_cast<double>(batch_arrivals(arrivals, delay).size()) * media_length;
}

}  // namespace smerge::merging
