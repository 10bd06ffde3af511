// Ablation: exhaustive grid sweep vs the budgeted optimizer (random
// exploration + coordinate descent). Pathfinding over a real circuit space
// is evaluation-bound, so finding the constrained optimum in a fraction of
// the evaluations is a direct framework speedup.

#include "obs/obs.hpp"

#include <chrono>
#include <iostream>

#include "core/optimizer.hpp"
#include "core/sweep.hpp"
#include "eeg/dataset.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

using namespace efficsense;
using namespace efficsense::core;

int main() {
  efficsense::obs::BenchRun obs_run("bench_ablation_search");
  const power::TechnologyParams tech;
  const auto n = static_cast<std::size_t>(env_int("EFFICSENSE_SEGMENTS", 8));
  const eeg::Generator gen{eeg::GeneratorConfig{}};
  const auto dataset =
      eeg::make_dataset(gen, n / 2, n - n / 2, derive_seed(2022, 0xEA1));
  classify::DetectorConfig det_cfg;
  const auto detector = classify::EpilepsyDetector::train(
      eeg::make_dataset(gen, 30, 30, derive_seed(2022, 0xDE7)), det_cfg);
  EvalOptions opt;
  opt.recon.residual_tol = 0.02;
  const Evaluator evaluator(tech, &dataset, &detector, opt);

  power::DesignParams base;
  base.cs_m = 75;  // CS chain; the axes below override M
  arch::DesignSpace space;
  space.add_axis("lna_noise_vrms", {1e-6, 2e-6, 3.5e-6, 6e-6, 10e-6, 15e-6, 20e-6})
      .add_axis("adc_bits", {6, 7, 8})
      .add_axis("cs_m", {75, 150, 192})
      .add_axis("cs_c_hold_f", {0.2e-12, 1e-12});

  std::cout << "Search-strategy ablation on the CS design space ("
            << space.size() << " grid points, " << dataset.size()
            << " segments per evaluation, constraint accuracy >= 95 %)\n\n";

  const double min_acc = 0.95;

  // Exhaustive grid.
  const auto t0 = std::chrono::steady_clock::now();
  const Sweeper sweeper(&evaluator);
  const auto grid = sweeper.run(base, space);
  const auto t1 = std::chrono::steady_clock::now();
  const auto grid_best =
      cheapest_with_merit(make_candidates(grid, Merit::Accuracy), min_acc);

  // Budgeted optimizer at ~1/4 of the grid cost.
  OptimizerOptions oo;
  oo.budget = space.size() / 4;
  oo.min_merit = min_acc;
  const PathfindingOptimizer optimizer(&evaluator, base, space);
  const auto t2 = std::chrono::steady_clock::now();
  const auto found = optimizer.run(oo);
  obs_run.set_points(grid.size() + found.evaluations());
  const auto t3 = std::chrono::steady_clock::now();

  TablePrinter t({"strategy", "evaluations", "time [s]", "best power",
                  "best acc [%]", "design point"});
  if (grid_best) {
    const auto& g = grid[grid_best->tag];
    t.add_row({"exhaustive grid", format_number(double(grid.size())),
               format_number(std::chrono::duration<double>(t1 - t0).count()),
               format_power(g.metrics.power_w),
               format_number(100.0 * g.metrics.accuracy),
               arch::point_to_string(g.point)});
  }
  const auto& o = found.evaluated[found.best];
  t.add_row({"random + coordinate descent",
             format_number(double(found.evaluations())),
             format_number(std::chrono::duration<double>(t3 - t2).count()),
             format_power(o.metrics.power_w),
             format_number(100.0 * o.metrics.accuracy),
             arch::point_to_string(o.point)});
  t.print(std::cout);

  if (grid_best) {
    const double gap =
        o.metrics.power_w / grid[grid_best->tag].metrics.power_w;
    std::cout << "\noptimizer optimum / grid optimum power ratio: "
              << format_number(gap) << " (1.0 = found the same optimum) at "
              << format_number(100.0 * double(found.evaluations()) /
                               double(grid.size()))
              << " % of the evaluations\n";
  }
  return 0;
}
