// Fig. 10: area-constrained search. For several caps on the total
// capacitance the accuracy-vs-power Pareto front is recomputed over the
// shared sweep (both architectures pooled, as in the paper's figure), and
// the best reachable accuracy under each cap is reported.

#include "obs/obs.hpp"

#include <cmath>
#include <iostream>
#include <limits>

#include "core/study.hpp"
#include "util/csv.hpp"

using namespace efficsense;
using namespace efficsense::core;

int main() {
  efficsense::obs::BenchRun obs_run("bench_fig10_area_constrained");
  Study study;
  std::cout << "Fig. 10 reproduction: area-constrained accuracy/power fronts\n\n";
  const auto result =
      study.run([](const std::string& line) { std::cout << "  [" << line << "]\n"; });
  obs_run.set_points(result.baseline.size() + result.cs.size());

  // Pool both architectures; remember which is which via the tag offset.
  std::vector<SweepResult> pooled = result.baseline;
  pooled.insert(pooled.end(), result.cs.begin(), result.cs.end());

  const double caps[] = {2e3, 2e4, 1e5, std::numeric_limits<double>::infinity()};
  for (double cap : caps) {
    std::vector<Candidate> eligible;
    for (std::size_t i = 0; i < pooled.size(); ++i) {
      if (pooled[i].metrics.area_unit_caps <= cap) {
        Candidate c;
        c.cost = pooled[i].metrics.power_w;
        c.merit = pooled[i].metrics.accuracy;
        c.tag = i;
        eligible.push_back(c);
      }
    }
    std::cout << "\n=== max area "
              << (std::isinf(cap) ? std::string("unconstrained")
                                  : format_number(cap) + " x Cu,min")
              << " (" << eligible.size() << " feasible points) ===\n";
    if (eligible.empty()) {
      std::cout << "no feasible design\n";
      continue;
    }
    const auto front = pareto_front(eligible);
    TablePrinter t({"arch", "power", "acc [%]", "area [Cu]", "design point"});
    for (const auto& c : front) {
      const auto& r = pooled[c.tag];
      t.add_row({r.design.uses_cs() ? "cs" : "baseline", format_power(c.cost),
                 format_number(100.0 * c.merit),
                 format_number(r.metrics.area_unit_caps),
                 arch::point_to_string(r.point)});
    }
    t.print(std::cout);
    const auto best = best_merit_where(eligible, [](const Candidate&) { return true; });
    std::cout << "best reachable accuracy: " << format_number(100.0 * best->merit)
              << " % at " << format_power(best->cost) << "\n";
  }

  std::cout << "\nExpected shape (paper Fig. 10): tight area caps exclude the "
               "capacitor-hungry CS designs\nand limit the maximum reachable "
               "accuracy; relaxing the cap restores the CS advantage.\n";
  return 0;
}
