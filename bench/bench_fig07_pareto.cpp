// Fig. 7 of the paper: evaluate the full Table III search space on the EEG
// dataset for both architectures and print
//   (a) SNR vs power with the Pareto fronts of both systems, and
//   (b) detection accuracy vs power with the optimal constrained designs.
// The sweep is shared (via the .cache/ file cache) with the Fig. 8/9/10
// benches, exactly as all four figures derive from one search in the paper.

#include <iostream>

#include "results_common.hpp"

#include "core/study.hpp"
#include "util/csv.hpp"

using namespace efficsense;
using namespace efficsense::core;

namespace {

void print_points(const std::vector<SweepResult>& results, const char* arch,
                  TablePrinter& table) {
  for (const auto& r : results) {
    table.add_row({arch, arch::point_to_string(r.point),
                   format_power(r.metrics.power_w),
                   format_number(r.metrics.snr_db),
                   format_number(100.0 * r.metrics.accuracy)});
  }
}

void print_front(const std::vector<SweepResult>& results, Merit merit,
                 const char* label) {
  const auto front = pareto_front(make_candidates(results, merit));
  std::cout << "\nPareto front (" << label << "):\n";
  TablePrinter t({"power", merit == Merit::Snr ? "SNR [dB]" : "accuracy [%]",
                  "design point"});
  for (const auto& c : front) {
    const auto& r = results[c.tag];
    t.add_row({format_power(c.cost),
               format_number(merit == Merit::Snr ? c.merit : 100.0 * c.merit),
               arch::point_to_string(r.point)});
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  efficsense::obs::BenchRun obs_run("bench_fig07_pareto");
  Study study;
  std::cout << "Fig. 7 reproduction: search-space sweep over "
            << study.config().eval_segments
            << " EEG segments (EFFICSENSE_SEGMENTS / EFFICSENSE_FULL=1 to "
               "rescale)\n\n";
  const auto result =
      study.run([](const std::string& line) { std::cout << "  [" << line << "]\n"; });
  obs_run.set_points(result.baseline.size() + result.cs.size());

  {
    auto csv_file = efficsense::bench::open_results("fig07_search_space.csv");
    CsvWriter csv(csv_file);
    csv.header({"arch", "point", "power_w", "snr_db", "accuracy",
                "area_unit_caps"});
    auto dump = [&csv](const std::vector<SweepResult>& rs, const char* arch) {
      for (const auto& r : rs) {
        csv.row({std::string(arch), arch::point_to_string(r.point),
                 format_number(r.metrics.power_w),
                 format_number(r.metrics.snr_db),
                 format_number(r.metrics.accuracy),
                 format_number(r.metrics.area_unit_caps)});
      }
    };
    dump(result.baseline, "baseline");
    dump(result.cs, "cs");
  }

  std::cout << "\n--- All evaluated design points ---\n";
  TablePrinter all({"arch", "design point", "power", "SNR [dB]", "acc [%]"});
  print_points(result.baseline, "baseline", all);
  print_points(result.cs, "cs", all);
  all.print(std::cout);

  std::cout << "\n=== Fig. 7a: SNR vs power ===";
  print_front(result.baseline, Merit::Snr, "baseline, SNR goal");
  print_front(result.cs, Merit::Snr, "CS, SNR goal");

  std::cout << "\n=== Fig. 7b: detection accuracy vs power ===";
  print_front(result.baseline, Merit::Accuracy, "baseline, accuracy goal");
  print_front(result.cs, Merit::Accuracy, "CS, accuracy goal");

  const double min_acc = study.config().min_accuracy;
  const auto best_base =
      cheapest_with_merit(make_candidates(result.baseline, Merit::Accuracy), min_acc);
  const auto best_cs =
      cheapest_with_merit(make_candidates(result.cs, Merit::Accuracy), min_acc);

  std::cout << "\n=== Optimal designs (accuracy >= "
            << format_number(100.0 * min_acc) << " %) ===\n";
  if (best_base) {
    std::cout << "baseline: " << describe_result(result.baseline[best_base->tag])
              << "\n";
  } else {
    std::cout << "baseline: no design meets the constraint\n";
  }
  if (best_cs) {
    std::cout << "CS      : " << describe_result(result.cs[best_cs->tag]) << "\n";
  } else {
    std::cout << "CS      : no design meets the constraint\n";
  }
  if (best_base && best_cs) {
    std::cout << "power saving of CS vs baseline: "
              << format_number(best_base->cost / best_cs->cost)
              << "x   (paper: 3.6x — 8.8 uW vs 2.44 uW)\n";
  }

  std::cout << "\nExpected shape (paper): baseline wins at high SNR, CS wins "
               "at low SNR (7a);\nwith the accuracy goal the CS front "
               "dominates across the whole range (7b).\n";
  return 0;
}
