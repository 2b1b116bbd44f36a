// Tests for the pluggable workload generators: determinism, popularity
// thinning, and the statistical shape of each arrival process.
#include "sim/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "sim/arrivals.h"

namespace smerge::sim {
namespace {

WorkloadConfig base_config() {
  WorkloadConfig config;
  config.process = ArrivalProcess::kPoisson;
  config.objects = 8;
  config.zipf_exponent = 1.0;
  config.mean_gap = 0.001;
  config.horizon = 50.0;
  config.seed = 123;
  return config;
}

std::size_t count_in(const std::vector<double>& times, double lo, double hi) {
  return static_cast<std::size_t>(std::count_if(
      times.begin(), times.end(), [=](double t) { return t >= lo && t < hi; }));
}

TEST(Workload, DeterministicPerObjectAndSeedSensitive) {
  const WorkloadConfig config = base_config();
  const auto a = generate_arrivals(config, 0);
  const auto b = generate_arrivals(config, 0);
  EXPECT_EQ(a, b);
  const auto other_object = generate_arrivals(config, 1);
  EXPECT_NE(a, other_object);
  WorkloadConfig reseeded = base_config();
  reseeded.seed = 124;
  EXPECT_NE(a, generate_arrivals(reseeded, 0));
  // Sorted within the horizon.
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.front(), 0.0);
  EXPECT_LE(a.back(), config.horizon);
}

TEST(Workload, ConstantRateSingleObjectMatchesLegacyGenerator) {
  WorkloadConfig config = base_config();
  config.process = ArrivalProcess::kConstantRate;
  config.objects = 1;
  config.mean_gap = 0.01;
  config.horizon = 10.0;
  EXPECT_EQ(generate_arrivals(config, 0),
            constant_arrivals(config.mean_gap, config.horizon));
}

TEST(Workload, PoissonGapsHaveConfiguredMean) {
  WorkloadConfig config = base_config();
  config.objects = 1;
  config.mean_gap = 0.01;
  config.horizon = 200.0;
  const auto times = generate_arrivals(config, 0);
  ASSERT_GT(times.size(), 10000u);
  const double mean_gap = times.back() / static_cast<double>(times.size());
  EXPECT_NEAR(mean_gap, config.mean_gap, 0.05 * config.mean_gap);
}

TEST(Workload, ZipfThinningMatchesPopularity) {
  const WorkloadConfig config = base_config();
  const auto weights = zipf_weights(config.objects, config.zipf_exponent);
  std::size_t total = 0;
  std::vector<std::size_t> counts(static_cast<std::size_t>(config.objects));
  for (Index m = 0; m < config.objects; ++m) {
    counts[static_cast<std::size_t>(m)] = generate_arrivals(config, m).size();
    total += counts[static_cast<std::size_t>(m)];
  }
  // ~50k aggregate arrivals: every object's share sits near its weight.
  ASSERT_GT(total, 10000u);
  for (Index m = 0; m < config.objects; ++m) {
    const double share = static_cast<double>(counts[static_cast<std::size_t>(m)]) /
                         static_cast<double>(total);
    EXPECT_NEAR(share, weights[static_cast<std::size_t>(m)],
                0.15 * weights[static_cast<std::size_t>(m)] + 0.002)
        << "object " << m;
  }
  // The most popular object dominates.
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()), counts.begin());
}

TEST(Workload, FlashCrowdElevatesBurstWindow) {
  WorkloadConfig config = base_config();
  config.process = ArrivalProcess::kFlashCrowd;
  config.objects = 1;
  config.mean_gap = 0.005;
  config.horizon = 40.0;
  config.burst_start = 10.0;
  config.burst_duration = 5.0;
  config.burst_multiplier = 8.0;
  const auto times = generate_arrivals(config, 0);
  const double inside =
      static_cast<double>(count_in(times, 10.0, 15.0));
  const double outside_baseline =
      static_cast<double>(count_in(times, 20.0, 25.0));
  ASSERT_GT(outside_baseline, 100.0);
  const double ratio = inside / outside_baseline;
  EXPECT_GT(ratio, 0.5 * config.burst_multiplier);
  EXPECT_LT(ratio, 2.0 * config.burst_multiplier);
}

TEST(Workload, DiurnalModulationFollowsTheSine) {
  WorkloadConfig config = base_config();
  config.process = ArrivalProcess::kDiurnal;
  config.objects = 1;
  config.mean_gap = 0.002;
  config.horizon = 20.0;
  config.diurnal_period = 20.0;   // one full cycle over the horizon
  config.diurnal_amplitude = 0.9;
  const auto times = generate_arrivals(config, 0);
  // First half-period: rate 1 + 0.9 sin > 1; second half: < 1.
  const double crest = static_cast<double>(count_in(times, 0.0, 10.0));
  const double trough = static_cast<double>(count_in(times, 10.0, 20.0));
  ASSERT_GT(trough, 100.0);
  EXPECT_GT(crest / trough, 1.5);
}

TEST(Workload, ExpectedArrivalsTracksActualCounts) {
  for (const ArrivalProcess process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kFlashCrowd,
        ArrivalProcess::kDiurnal}) {
    WorkloadConfig config = base_config();
    config.process = process;
    config.mean_gap = 0.002;
    config.horizon = 30.0;
    std::size_t total = 0;
    for (Index m = 0; m < config.objects; ++m) {
      total += generate_arrivals(config, m).size();
    }
    const double expected = expected_arrivals(config);
    EXPECT_NEAR(static_cast<double>(total), expected, 0.1 * expected)
        << to_string(process);
  }
}

TEST(ZipfWeights, NormalizedAndDecreasing) {
  const auto w = zipf_weights(8, 1.0);
  ASSERT_EQ(w.size(), 8u);
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-12);
  for (std::size_t i = 1; i < w.size(); ++i) {
    EXPECT_LT(w[i], w[i - 1]);
  }
  // Uniform when the exponent is zero.
  const auto u = zipf_weights(4, 0.0);
  for (const double x : u) EXPECT_NEAR(x, 0.25, 1e-12);
  EXPECT_THROW(zipf_weights(0, 1.0), std::invalid_argument);
}

TEST(Workload, Validation) {
  WorkloadConfig config = base_config();
  config.objects = 0;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config = base_config();
  config.mean_gap = 0.0;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config = base_config();
  config.horizon = -1.0;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config = base_config();
  config.process = ArrivalProcess::kFlashCrowd;
  config.burst_multiplier = 0.5;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config = base_config();
  config.process = ArrivalProcess::kDiurnal;
  config.diurnal_amplitude = 1.0;
  EXPECT_THROW(validate(config), std::invalid_argument);
  EXPECT_THROW((void)generate_arrivals(base_config(), 8), std::invalid_argument);
  EXPECT_THROW((void)generate_arrivals(base_config(), 0, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)zipf_weights(0, 1.0), std::invalid_argument);
}

TEST(Workload, ProcessNames) {
  EXPECT_STREQ(to_string(ArrivalProcess::kPoisson), "poisson");
  EXPECT_STREQ(to_string(ArrivalProcess::kConstantRate), "constant-rate");
  EXPECT_STREQ(to_string(ArrivalProcess::kFlashCrowd), "flash-crowd");
  EXPECT_STREQ(to_string(ArrivalProcess::kDiurnal), "diurnal");
}

}  // namespace
}  // namespace smerge::sim
