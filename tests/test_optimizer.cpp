// Budgeted pathfinding optimizer: correctness on analytic objectives where
// the true optimum is known, budget accounting, deduplication, and the
// constrained (feasible-first) comparison logic.

#include <gtest/gtest.h>

#include <cmath>

#include "core/optimizer.hpp"
#include "util/error.hpp"

using namespace efficsense;
using namespace efficsense::core;

namespace {

/// Analytic toy objective over (lna_noise_vrms, adc_bits):
///  power  = 1/noise + bits          (cheaper at high noise, low bits)
///  "accuracy" = 1 - noise*1e5 - 0.02*(8-bits)  (better at low noise, high bits)
EvalMetrics toy_objective(const power::DesignParams& d) {
  EvalMetrics m;
  m.power_w = 1e-6 / (d.lna_noise_vrms * 1e6) + 1e-7 * d.adc_bits;
  m.accuracy = 1.0 - 0.004 * (d.lna_noise_vrms * 1e6) -
               0.02 * (8.0 - d.adc_bits);
  m.snr_db = 40.0 - d.lna_noise_vrms * 1e6;
  return m;
}

arch::DesignSpace toy_space() {
  arch::DesignSpace space;
  space.add_axis("lna_noise_vrms",
                 {1e-6, 2e-6, 3e-6, 4e-6, 5e-6, 6e-6, 8e-6, 10e-6});
  space.add_axis("adc_bits", {6, 7, 8});
  return space;
}

}  // namespace

TEST(Optimizer, FindsConstrainedOptimumOnToyProblem) {
  // Constraint accuracy >= 0.95 with
  //   accuracy(noise_uv, bits) = 1 - 0.004*noise_uv - 0.02*(8-bits),
  //   power(noise_uv, bits)    = 1e-6/noise_uv + 1e-7*bits.
  // Enumerating the grid by hand: the cheapest feasible point is
  // noise = 6 uV, bits = 7 (accuracy 0.956, power 8.67e-7) — cheaper than
  // e.g. (10 uV, 8 bit) at 9.0e-7.
  const PathfindingOptimizer opt(toy_objective, power::DesignParams{},
                                 toy_space());
  OptimizerOptions options;
  options.budget = 24;  // grid size
  options.min_merit = 0.95;
  const auto result = opt.run(options);
  ASSERT_TRUE(result.feasible);
  const auto& best = result.evaluated[result.best];
  EXPECT_DOUBLE_EQ(best.point.at("lna_noise_vrms"), 6e-6);
  EXPECT_DOUBLE_EQ(best.point.at("adc_bits"), 7.0);
}

TEST(Optimizer, RespectsBudget) {
  const PathfindingOptimizer opt(toy_objective, power::DesignParams{},
                                 toy_space());
  OptimizerOptions options;
  options.budget = 7;
  const auto result = opt.run(options);
  EXPECT_LE(result.evaluations(), 7u);
  EXPECT_GE(result.evaluations(), 2u);
}

TEST(Optimizer, NeverEvaluatesDuplicates) {
  std::size_t calls = 0;
  const PathfindingOptimizer opt(
      [&calls](const power::DesignParams& d) {
        ++calls;
        return toy_objective(d);
      },
      power::DesignParams{}, toy_space());
  OptimizerOptions options;
  options.budget = 24;
  const auto result = opt.run(options);
  EXPECT_EQ(calls, result.evaluations());
  // All evaluated points distinct.
  std::set<std::string> keys;
  for (const auto& r : result.evaluated) keys.insert(arch::point_to_string(r.point));
  EXPECT_EQ(keys.size(), result.evaluations());
}

TEST(Optimizer, InfeasibleProblemReportsBestMerit) {
  const PathfindingOptimizer opt(toy_objective, power::DesignParams{},
                                 toy_space());
  OptimizerOptions options;
  options.budget = 24;
  options.min_merit = 2.0;  // unreachable
  const auto result = opt.run(options);
  EXPECT_FALSE(result.feasible);
  // Best-merit point: noise = 1 uV, bits = 8.
  const auto& best = result.evaluated[result.best];
  EXPECT_DOUBLE_EQ(best.point.at("lna_noise_vrms"), 1e-6);
  EXPECT_DOUBLE_EQ(best.point.at("adc_bits"), 8.0);
}

TEST(Optimizer, DeterministicPerSeed) {
  const PathfindingOptimizer opt(toy_objective, power::DesignParams{},
                                 toy_space());
  OptimizerOptions options;
  options.budget = 12;
  const auto a = opt.run(options);
  const auto b = opt.run(options);
  ASSERT_EQ(a.evaluations(), b.evaluations());
  for (std::size_t i = 0; i < a.evaluations(); ++i) {
    EXPECT_EQ(arch::point_to_string(a.evaluated[i].point),
              arch::point_to_string(b.evaluated[i].point));
  }
  options.seed = 99;
  const auto c = opt.run(options);
  bool any_diff = a.evaluations() != c.evaluations();
  for (std::size_t i = 0; !any_diff && i < std::min(a.evaluations(), c.evaluations()); ++i) {
    any_diff = arch::point_to_string(a.evaluated[i].point) !=
               arch::point_to_string(c.evaluated[i].point);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Optimizer, SnrMeritSupported) {
  const PathfindingOptimizer opt(toy_objective, power::DesignParams{},
                                 toy_space());
  OptimizerOptions options;
  options.budget = 24;
  options.merit = Merit::Snr;
  options.min_merit = 32.0;  // snr = 40 - noise_uv -> noise <= 8 uV
  const auto result = opt.run(options);
  ASSERT_TRUE(result.feasible);
  const auto& best = result.evaluated[result.best];
  // Cheapest feasible: the largest noise with snr >= 32 and fewest bits.
  EXPECT_DOUBLE_EQ(best.point.at("lna_noise_vrms"), 8e-6);
  EXPECT_DOUBLE_EQ(best.point.at("adc_bits"), 6.0);
}

TEST(Optimizer, ValidatesConfiguration) {
  EXPECT_THROW(PathfindingOptimizer(nullptr, power::DesignParams{}, toy_space()),
               Error);
  EXPECT_THROW(
      PathfindingOptimizer(toy_objective, power::DesignParams{}, arch::DesignSpace{}),
      Error);
  const PathfindingOptimizer opt(toy_objective, power::DesignParams{},
                                 toy_space());
  OptimizerOptions options;
  options.budget = 1;
  EXPECT_THROW(opt.run(options), Error);
}
