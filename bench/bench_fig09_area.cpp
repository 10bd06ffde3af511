// Fig. 9: detection accuracy vs total capacitor count (in C_u,min units)
// for every evaluated design point of the shared sweep.

#include "obs/obs.hpp"

#include <algorithm>
#include <iostream>

#include "core/study.hpp"
#include "util/csv.hpp"

using namespace efficsense;
using namespace efficsense::core;

int main() {
  efficsense::obs::BenchRun obs_run("bench_fig09_area");
  Study study;
  std::cout << "Fig. 9 reproduction: accuracy vs capacitor area\n\n";
  const auto result =
      study.run([](const std::string& line) { std::cout << "  [" << line << "]\n"; });
  obs_run.set_points(result.baseline.size() + result.cs.size());

  TablePrinter t({"arch", "area [x Cu,min]", "acc [%]", "power", "design point"});
  auto add = [&](const std::vector<SweepResult>& results, const char* arch) {
    std::vector<const SweepResult*> sorted;
    for (const auto& r : results) sorted.push_back(&r);
    std::sort(sorted.begin(), sorted.end(), [](auto* a, auto* b) {
      return a->metrics.area_unit_caps < b->metrics.area_unit_caps;
    });
    for (const auto* r : sorted) {
      t.add_row({arch, format_number(r->metrics.area_unit_caps),
                 format_number(100.0 * r->metrics.accuracy),
                 format_power(r->metrics.power_w), arch::point_to_string(r->point)});
    }
  };
  add(result.baseline, "baseline");
  add(result.cs, "cs");
  t.print(std::cout);

  // Aggregate view: area range per architecture.
  auto minmax = [](const std::vector<SweepResult>& rs) {
    double lo = 1e300, hi = 0.0;
    for (const auto& r : rs) {
      lo = std::min(lo, r.metrics.area_unit_caps);
      hi = std::max(hi, r.metrics.area_unit_caps);
    }
    return std::pair{lo, hi};
  };
  const auto [blo, bhi] = minmax(result.baseline);
  const auto [clo, chi] = minmax(result.cs);
  std::cout << "\nbaseline area range: " << format_number(blo) << " .. "
            << format_number(bhi) << " Cu\nCS area range      : "
            << format_number(clo) << " .. " << format_number(chi) << " Cu\n";

  std::cout << "\nExpected shape (paper Fig. 9): the CS technique increases "
               "the total capacitance by\norders of magnitude (M hold caps "
               "sized for matching), trading silicon area for power.\n";
  return 0;
}
